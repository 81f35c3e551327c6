module Metrics = Revmax_prelude.Metrics

(* per-operation counters: a single branch each when metrics are disabled *)
let c_inserts = Metrics.counter "binary_heap.inserts"

let c_deletes = Metrics.counter "binary_heap.delete_max"

let c_removes = Metrics.counter "binary_heap.removes"

let c_update_keys = Metrics.counter "binary_heap.update_keys"

(* Structure-of-arrays layout with slot indirection. [keys] (unboxed
   floats) and [slots] (slot ids) are parallel arrays in heap order, and
   [posof] maps slot id → current heap position — so a sift level reads
   and writes only unboxed int/float arrays. Keeping element pointers out
   of the sift path is deliberate: a store into a pointer array runs the
   GC write barrier ([caml_modify]), and with tens of sift moves per
   greedy cycle the barrier dominated every heap-ordered-value layout
   that was profiled. Element pointers live in [byval], indexed by slot
   id and written exactly once per insert. [gens] carries a generation
   counter bumped on every slot free, which is how a stale handle (its
   slot recycled or removed) is detected from flat int arrays alone.
   [tb] holds the per-element tie rank (slot-indexed, so it rides along
   through sifts for free): equal keys order by SMALLER rank first —
   matching the first-maximum-wins order of a naive argmax scan over
   candidates — making the heap order a strict total order. Pop order is then a property of the
   stored (key, rank) pairs alone, independent of insertion history or
   rebuilds — the bedrock of the cross-policy / cross-shard bit-identity
   guarantees of the greedy selection loop. *)
type 'a handle = { hvalue : 'a; sid : int; gen : int; owner : int }

type 'a t = {
  mutable keys : float array; (* keys.(0 .. size-1) are live, heap order *)
  mutable slots : int array; (* heap position -> slot id *)
  mutable tb : int array; (* slot id -> tie rank; equal keys, smaller rank wins *)
  mutable byval : 'a array; (* slot id -> element, written once per insert *)
  mutable posof : int array; (* slot id -> heap position; -1 once removed *)
  mutable gens : int array; (* slot id -> generation, bumped on free *)
  mutable free : int array; (* stack of recycled slot ids *)
  mutable free_top : int;
  mutable nslots : int; (* high-water slot count *)
  mutable heap_size : int;
  id : int; (* identity of the owning heap, to catch cross-heap misuse *)
}

let next_id = ref 0

let create ?(capacity = 16) () =
  incr next_id;
  let cap = max capacity 1 in
  {
    keys = Array.make cap 0.0;
    slots = Array.make cap 0;
    tb = Array.make cap 0;
    byval = Array.make cap (Obj.magic 0);
    posof = Array.make cap (-1);
    gens = Array.make cap 0;
    free = Array.make cap 0;
    free_top = 0;
    nslots = 0;
    heap_size = 0;
    id = !next_id;
  }

let size t = t.heap_size

let is_empty t = t.heap_size = 0

(* 8-ary, hole-based sifting. Eight children per node cut the sift depth to a third
   of a binary heap and sit contiguously in the key array, which matters
   because a sift is a chain of dependent loads. The hole technique holds
   the displaced element out while ancestors or the largest child slide
   into the hole, and writes it back once at its final position. Ties:
   equal keys compare by tie rank ([tb]), smaller rank first — the rank
   load sits behind the float-equality test, so the common unequal-keys
   case pays only the branch. *)
let arity = 8

let sift_up t i0 =
  let hk = t.keys.(i0) and hs = t.slots.(i0) in
  let ht = t.tb.(hs) in
  let i = ref i0 in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / arity in
    let kp = t.keys.(parent) in
    if kp < hk || (kp = hk && t.tb.(t.slots.(parent)) > ht) then begin
      t.keys.(!i) <- t.keys.(parent);
      t.slots.(!i) <- t.slots.(parent);
      t.posof.(t.slots.(!i)) <- !i;
      i := parent
    end
    else continue_ := false
  done;
  if !i <> i0 then begin
    t.keys.(!i) <- hk;
    t.slots.(!i) <- hs;
    t.posof.(hs) <- !i
  end

let sift_down t i0 =
  let hk = t.keys.(i0) and hs = t.slots.(i0) in
  let ht = t.tb.(hs) in
  let i = ref i0 in
  let continue_ = ref true in
  while !continue_ do
    let first = (arity * !i) + 1 in
    (* int [min] by hand: the polymorphic [Stdlib.min] is a generic
       comparison call, visible in profiles at one call per sift level *)
    let last = if first + arity - 1 < t.heap_size - 1 then first + arity - 1 else t.heap_size - 1 in
    let largest = ref !i in
    let lk = ref hk in
    let lt = ref ht in
    for c = first to last do
      let kc = t.keys.(c) in
      if kc > !lk || (kc = !lk && t.tb.(t.slots.(c)) < !lt) then begin
        largest := c;
        lk := kc;
        lt := t.tb.(t.slots.(c))
      end
    done;
    if !largest <> !i then begin
      t.keys.(!i) <- t.keys.(!largest);
      t.slots.(!i) <- t.slots.(!largest);
      t.posof.(t.slots.(!i)) <- !i;
      i := !largest
    end
    else continue_ := false
  done;
  if !i <> i0 then begin
    t.keys.(!i) <- hk;
    t.slots.(!i) <- hs;
    t.posof.(hs) <- !i
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
    let tb = Array.make (2 * cap) 0 in
    Array.blit t.tb 0 tb 0 cap;
    t.tb <- tb;
    let byval = Array.make (2 * cap) t.byval.(0) in
    Array.blit t.byval 0 byval 0 cap;
    t.byval <- byval;
    let posof = Array.make (2 * cap) (-1) in
    Array.blit t.posof 0 posof 0 cap;
    t.posof <- posof;
    let gens = Array.make (2 * cap) 0 in
    Array.blit t.gens 0 gens 0 cap;
    t.gens <- gens;
    let free = Array.make (2 * cap) 0 in
    Array.blit t.free 0 free 0 cap;
    t.free <- free
  end

let alloc_slot t =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    t.free.(t.free_top)
  end
  else begin
    let sid = t.nslots in
    t.nslots <- sid + 1;
    sid
  end

let push_unchecked t key tie v =
  grow t;
  let sid = alloc_slot t in
  let h = { hvalue = v; sid; gen = t.gens.(sid); owner = t.id } in
  t.keys.(t.heap_size) <- key;
  t.slots.(t.heap_size) <- sid;
  t.tb.(sid) <- tie;
  t.byval.(sid) <- v;
  t.posof.(sid) <- t.heap_size;
  t.heap_size <- t.heap_size + 1;
  h

let insert t ~key ?(tie = 0) v =
  Metrics.incr c_inserts;
  let h = push_unchecked t key tie v in
  sift_up t t.posof.(h.sid);
  h

let find_max t =
  if t.heap_size = 0 then None else Some (t.byval.(t.slots.(0)), t.keys.(0))

let contains t h = h.owner = t.id && t.gens.(h.sid) = h.gen && t.posof.(h.sid) >= 0

let check t h = if not (contains t h) then invalid_arg "Binary_heap: stale or foreign handle"

(* remove the element at heap position [i], freeing its slot *)
let remove_at t i =
  let sid = t.slots.(i) in
  t.posof.(sid) <- -1;
  t.gens.(sid) <- t.gens.(sid) + 1;
  t.free.(t.free_top) <- sid;
  t.free_top <- t.free_top + 1;
  t.byval.(sid) <- Obj.magic 0 (* drop the vacated element reference *);
  let last = t.heap_size - 1 in
  t.heap_size <- last;
  if i < last then begin
    t.keys.(i) <- t.keys.(last);
    t.slots.(i) <- t.slots.(last);
    t.posof.(t.slots.(i)) <- i;
    sift_down t i;
    sift_up t i
  end

let remove t h =
  Metrics.incr c_removes;
  check t h;
  remove_at t t.posof.(h.sid)

let delete_max t =
  if t.heap_size = 0 then None
  else begin
    Metrics.incr c_deletes;
    let v = t.byval.(t.slots.(0)) in
    let k = t.keys.(0) in
    remove_at t 0;
    Some (v, k)
  end

let update_key t h key =
  Metrics.incr c_update_keys;
  check t h;
  let i = t.posof.(h.sid) in
  let old = t.keys.(i) in
  t.keys.(i) <- key;
  if key > old then sift_up t i else if key < old then sift_down t i

let key t h =
  check t h;
  t.keys.(t.posof.(h.sid))

let value h = h.hvalue

let iter t f =
  for i = 0 to t.heap_size - 1 do
    f t.byval.(t.slots.(i)) t.keys.(i)
  done

let of_list l =
  let t = create ~capacity:(max 1 (List.length l)) () in
  List.iter (fun (k, v) -> ignore (push_unchecked t k 0 v)) l;
  (* bottom-up heapify: O(n) *)
  for i = (t.heap_size - 2) / arity downto 0 do
    sift_down t i
  done;
  t

let to_sorted_list t =
  let items = ref [] in
  iter t (fun v k -> items := (v, k) :: !items);
  List.sort (fun (_, k1) (_, k2) -> compare k2 k1) !items
