module Metrics = Revmax_prelude.Metrics

(* per-operation counters: a single branch each when metrics are disabled *)
let c_inserts = Metrics.counter "binary_heap.inserts"

let c_deletes = Metrics.counter "binary_heap.delete_max"

(* Structure-of-arrays layout with slot indirection. [keys] (unboxed
   floats) and [slots] (slot ids) are parallel arrays in heap order, so a
   sift level reads and writes only unboxed int/float arrays. Keeping
   element pointers out of the sift path is deliberate: a store into a
   pointer array runs the GC write barrier ([caml_modify]), and with tens
   of sift moves per pop the barrier dominated every heap-ordered-value
   layout that was profiled. Element pointers live in [byval], indexed by
   slot id and written exactly once per insert; a popped element's slot
   goes on the [free] stack for the next insert. *)
type 'a t = {
  mutable keys : float array; (* keys.(0 .. size-1) are live, heap order *)
  mutable slots : int array; (* heap position -> slot id *)
  mutable byval : 'a array; (* slot id -> element, written once per insert *)
  mutable free : int array; (* stack of recycled slot ids *)
  mutable free_top : int;
  mutable nslots : int; (* high-water slot count *)
  mutable heap_size : int;
}

let create () =
  let cap = 16 in
  {
    keys = Array.make cap 0.0;
    slots = Array.make cap 0;
    byval = Array.make cap (Obj.magic 0);
    free = Array.make cap 0;
    free_top = 0;
    nslots = 0;
    heap_size = 0;
  }

let is_empty t = t.heap_size = 0

(* 8-ary, hole-based sifting. Eight children per node cut the sift depth to
   a third of a binary heap and sit contiguously in the key array, which
   matters because a sift is a chain of dependent loads. The hole technique
   holds the displaced element out while ancestors or the largest child
   slide into the hole, and writes it back once at its final position. *)
let arity = 8

let sift_up t i0 =
  let hk = t.keys.(i0) and hs = t.slots.(i0) in
  let i = ref i0 in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / arity in
    let kp = t.keys.(parent) in
    if kp < hk then begin
      t.keys.(!i) <- t.keys.(parent);
      t.slots.(!i) <- t.slots.(parent);
      i := parent
    end
    else continue_ := false
  done;
  if !i <> i0 then begin
    t.keys.(!i) <- hk;
    t.slots.(!i) <- hs
  end

let sift_down t i0 =
  let hk = t.keys.(i0) and hs = t.slots.(i0) in
  let i = ref i0 in
  let continue_ = ref true in
  while !continue_ do
    let first = (arity * !i) + 1 in
    (* int [min] by hand: the polymorphic [Stdlib.min] is a generic
       comparison call, visible in profiles at one call per sift level *)
    let last = if first + arity - 1 < t.heap_size - 1 then first + arity - 1 else t.heap_size - 1 in
    let largest = ref !i in
    let lk = ref hk in
    for c = first to last do
      let kc = t.keys.(c) in
      if kc > !lk then begin
        largest := c;
        lk := kc
      end
    done;
    if !largest <> !i then begin
      t.keys.(!i) <- t.keys.(!largest);
      t.slots.(!i) <- t.slots.(!largest);
      i := !largest
    end
    else continue_ := false
  done;
  if !i <> i0 then begin
    t.keys.(!i) <- hk;
    t.slots.(!i) <- hs
  end

let grow t =
  let cap = Array.length t.keys in
  if t.heap_size = cap then begin
    let keys = Array.make (2 * cap) 0.0 in
    Array.blit t.keys 0 keys 0 cap;
    t.keys <- keys;
    let slots = Array.make (2 * cap) 0 in
    Array.blit t.slots 0 slots 0 cap;
    t.slots <- slots;
    let byval = Array.make (2 * cap) t.byval.(0) in
    Array.blit t.byval 0 byval 0 cap;
    t.byval <- byval;
    let free = Array.make (2 * cap) 0 in
    Array.blit t.free 0 free 0 cap;
    t.free <- free
  end

let insert t ~key v =
  Metrics.incr c_inserts;
  grow t;
  let sid =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free.(t.free_top)
    end
    else begin
      let sid = t.nslots in
      t.nslots <- sid + 1;
      sid
    end
  in
  let n = t.heap_size in
  t.keys.(n) <- key;
  t.slots.(n) <- sid;
  t.byval.(sid) <- v;
  t.heap_size <- n + 1;
  sift_up t n

let delete_max t =
  if t.heap_size = 0 then None
  else begin
    Metrics.incr c_deletes;
    let sid = t.slots.(0) in
    let v = t.byval.(sid) and k = t.keys.(0) in
    t.free.(t.free_top) <- sid;
    t.free_top <- t.free_top + 1;
    t.byval.(sid) <- Obj.magic 0 (* drop the vacated element reference *);
    let last = t.heap_size - 1 in
    t.heap_size <- last;
    if last > 0 then begin
      t.keys.(0) <- t.keys.(last);
      t.slots.(0) <- t.slots.(last);
      sift_down t 0
    end;
    Some (v, k)
  end
