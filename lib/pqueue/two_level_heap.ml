module Metrics = Revmax_prelude.Metrics

let c_inserts = Metrics.counter "two_level_heap.inserts"

let c_pops = Metrics.counter "two_level_heap.pops"

let c_refresh_pairs = Metrics.counter "two_level_heap.refresh_pairs"

(* One flat arena. Group g's lower heap lives in slots
   [g·width, g·width + size.(g)) of [keys]/[ents], in heap order; the
   upper heap is three flat arrays over groups — [ukey]/[ugrp] in heap
   order and [upos], each group's upper position (−1 when absent). Every
   sift therefore reads and writes unboxed float and int arrays only: no
   records, handles or options, and no GC write barrier.

   Both levels use 8-ary hole sifts under one strict total order — higher
   key first, equal keys smaller entry (upper level: smaller group) first
   — so pop order is a function of the stored (key, entry) pairs alone.
   Since a group is [e / width], the two-level order is exactly the flat
   (key, entry) order. *)
type t = {
  width : int;
  keys : float array;
  ents : int array;
  size : int array;
  ukey : float array;
  ugrp : int array;
  upos : int array;
  mutable usize : int;
  mutable total : int;
}

let arity = 8

let create ~groups ~width =
  if groups < 0 || width < 1 then invalid_arg "Two_level_heap.create: bad dimensions";
  {
    width;
    keys = Array.make (groups * width) 0.0;
    ents = Array.make (groups * width) 0;
    size = Array.make groups 0;
    ukey = Array.make groups 0.0;
    ugrp = Array.make groups 0;
    upos = Array.make groups (-1);
    usize = 0;
    total = 0;
  }

let size t = t.total

let is_empty t = t.total = 0

(* 8-ary hole sifts over the heap in slots [base, base + n) of [keys] and
   [ids]. A non-empty [pos] tracks each id's position (the upper level;
   the lower level needs none). *)
let sift_up (keys : float array) (ids : int array) (pos : int array) base i0 =
  let hk = keys.(base + i0) and hv = ids.(base + i0) in
  let track = Array.length pos > 0 in
  let i = ref i0 in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / arity in
    let kp = keys.(base + parent) and vp = ids.(base + parent) in
    if kp < hk || (kp = hk && vp > hv) then begin
      keys.(base + !i) <- kp;
      ids.(base + !i) <- vp;
      if track then pos.(vp) <- !i;
      i := parent
    end
    else continue_ := false
  done;
  if !i <> i0 then begin
    keys.(base + !i) <- hk;
    ids.(base + !i) <- hv;
    if track then pos.(hv) <- !i
  end

let sift_down (keys : float array) (ids : int array) (pos : int array) base n i0 =
  let hk = keys.(base + i0) and hv = ids.(base + i0) in
  let track = Array.length pos > 0 in
  let i = ref i0 in
  let continue_ = ref true in
  while !continue_ do
    let first = (arity * !i) + 1 in
    let last = if first + arity - 1 < n - 1 then first + arity - 1 else n - 1 in
    let largest = ref !i and lk = ref hk and lv = ref hv in
    for c = first to last do
      let kc = keys.(base + c) in
      if kc > !lk || (kc = !lk && ids.(base + c) < !lv) then begin
        largest := c;
        lk := kc;
        lv := ids.(base + c)
      end
    done;
    if !largest <> !i then begin
      keys.(base + !i) <- !lk;
      ids.(base + !i) <- !lv;
      if track then pos.(!lv) <- !i;
      i := !largest
    end
    else continue_ := false
  done;
  if !i <> i0 then begin
    keys.(base + !i) <- hk;
    ids.(base + !i) <- hv;
    if track then pos.(hv) <- !i
  end

let no_pos = [||]

let lower_sift_down t base n i = sift_down t.keys t.ents no_pos base n i

let upper_sift_up t i = sift_up t.ukey t.ugrp t.upos 0 i

let upper_sift_down t i = sift_down t.ukey t.ugrp t.upos 0 t.usize i

(* re-key group [g] in the upper heap to its lower root's key, inserting
   it when absent *)
let upper_sync t g =
  let k = t.keys.(g * t.width) in
  let p = t.upos.(g) in
  if p < 0 then begin
    let p = t.usize in
    t.ukey.(p) <- k;
    t.ugrp.(p) <- g;
    t.upos.(g) <- p;
    t.usize <- p + 1;
    upper_sift_up t p
  end
  else begin
    let old = t.ukey.(p) in
    t.ukey.(p) <- k;
    if k > old then upper_sift_up t p else if k < old then upper_sift_down t p
  end

(* take group [g] out of the upper heap; the last group fills its place
   and sifts whichever way its key says *)
let upper_remove t g =
  let p = t.upos.(g) in
  t.upos.(g) <- -1;
  let last = t.usize - 1 in
  t.usize <- last;
  if p < last then begin
    t.ukey.(p) <- t.ukey.(last);
    t.ugrp.(p) <- t.ugrp.(last);
    t.upos.(t.ugrp.(p)) <- p;
    upper_sift_up t p;
    upper_sift_down t p
  end

(* re-key the root group to its lower root's key after that key moved
   down (or stayed); the key is read here, not passed, because a float
   argument would be boxed at the call *)
let upper_rekey_root t =
  let k = t.keys.(t.ugrp.(0) * t.width) in
  let old = t.ukey.(0) in
  t.ukey.(0) <- k;
  if k < old then upper_sift_down t 0

let insert t cell e =
  Metrics.incr c_inserts;
  let g = e / t.width in
  let base = g * t.width and n = t.size.(g) in
  if n >= t.width then invalid_arg "Two_level_heap.insert: group full";
  t.keys.(base + n) <- cell.(0);
  t.ents.(base + n) <- e;
  t.size.(g) <- n + 1;
  t.total <- t.total + 1;
  sift_up t.keys t.ents no_pos base n;
  upper_sync t g

let check_nonempty t = if t.usize = 0 then invalid_arg "Two_level_heap: empty heap"

let max_elt t =
  check_nonempty t;
  t.ents.(t.ugrp.(0) * t.width)

let max_key_into t cell =
  check_nonempty t;
  cell.(0) <- t.ukey.(0)

(* remove the root group's lower root and fix both levels *)
let drop_max t =
  check_nonempty t;
  Metrics.incr c_pops;
  let g = t.ugrp.(0) in
  let base = g * t.width in
  let n = t.size.(g) - 1 in
  t.size.(g) <- n;
  t.total <- t.total - 1;
  if n = 0 then upper_remove t g
  else begin
    t.keys.(base) <- t.keys.(base + n);
    t.ents.(base) <- t.ents.(base + n);
    lower_sift_down t base n 0;
    upper_rekey_root t
  end

(* a scan of the entry's group, then one sift of the entry that fills its
   slot: up or down, the other sift is then a no-op *)
let remove t e =
  let g = e / t.width in
  let base = g * t.width and n = t.size.(g) in
  let k = ref 0 in
  while !k < n && t.ents.(base + !k) <> e do incr k done;
  if !k < n then begin
    let n = n - 1 in
    t.size.(g) <- n;
    t.total <- t.total - 1;
    if n = 0 then upper_remove t g
    else begin
      if !k < n then begin
        t.keys.(base + !k) <- t.keys.(base + n);
        t.ents.(base + !k) <- t.ents.(base + n);
        sift_up t.keys t.ents no_pos base !k;
        lower_sift_down t base n !k
      end;
      upper_sync t g
    end
  end

(* Every key of group [g] goes through [cell.(0)] in heap-array order; the
   group is then heapified bottom-up and re-keyed in the upper level. *)
let refresh_pair_into t g cell ~f =
  let n = t.size.(g) in
  if n > 0 then begin
    Metrics.incr c_refresh_pairs;
    let base = g * t.width in
    for i = base to base + n - 1 do
      cell.(0) <- t.keys.(i);
      f t.ents.(i);
      t.keys.(i) <- cell.(0)
    done;
    for i = (n - 2) / arity downto 0 do
      lower_sift_down t base n i
    done;
    upper_sync t g
  end
