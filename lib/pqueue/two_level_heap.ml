module Metrics = Revmax_prelude.Metrics

let c_inserts = Metrics.counter "two_level_heap.inserts"

let c_pops = Metrics.counter "two_level_heap.pops"

let c_refresh_pairs = Metrics.counter "two_level_heap.refresh_pairs"

(* One flat arena. Group g's lower heap lives in slots
   [g·width, g·width + size g) of [keys]/[offs], in heap order; a slot
   holds its entry as the 16-bit offset [e − g·width] inside the group,
   two bytes of [offs]. [last] keeps, in two bytes per group, a non-empty
   group's last occupied slot (its size − 1); a group is non-empty iff it
   is in the upper heap, so an empty one needs no size and a full group of
   65,536 still fits. The upper heap is three flat arrays over groups —
   [ukey]/[ugrp] in heap order and [upos], each group's upper position
   (−1 when absent); group ids and positions take four bytes each, so
   there are at most 2^31 − 1 groups. Every sift therefore reads and
   writes an unboxed float array and bytes only: no records, handles or
   options, and no GC write barrier.

   Both levels use 8-ary hole sifts under one strict total order — higher
   key first, equal keys smaller entry (upper level: smaller group) first
   — so pop order is a function of the stored (key, entry) pairs alone.
   Within a group the offset orders as the entry does, and a group is
   [e / width], so the two-level order is exactly the flat (key, entry)
   order. *)
type t = {
  width : int;
  keys : float array;
  offs : Bytes.t;
  last : Bytes.t;
  ukey : float array;
  ugrp : Bytes.t;
  upos : Bytes.t;
  mutable usize : int;
  mutable total : int;
}

let arity = 8

let max_width = 65_536

let max_groups = 0x7FFF_FFFF

let create ~groups ~width =
  if groups < 0 || width < 1 then invalid_arg "Two_level_heap.create: bad dimensions";
  if width > max_width then invalid_arg "Two_level_heap.create: width above 65536";
  if groups > max_groups then invalid_arg "Two_level_heap.create: more than 2^31 - 1 groups";
  {
    width;
    keys = Array.make (groups * width) 0.0;
    offs = Bytes.make (2 * groups * width) '\000';
    last = Bytes.make (2 * groups) '\000';
    ukey = Array.make groups 0.0;
    ugrp = Bytes.make (4 * groups) '\000';
    (* every byte 0xff: each position reads −1, absent *)
    upos = Bytes.make (4 * groups) '\255';
    usize = 0;
    total = 0;
  }

(* 32-bit group ids and positions *)
let get32 b k = Int32.to_int (Bytes.get_int32_le b (4 * k))

let set32 b k v = Bytes.set_int32_le b (4 * k) (Int32.of_int v)

let size t = t.total

let is_empty t = t.total = 0

let group_size t g = if get32 t.upos g < 0 then 0 else Bytes.get_uint16_le t.last (2 * g) + 1

(* the size of a group that stays non-empty *)
let set_group_size t g n = Bytes.set_uint16_le t.last (2 * g) (n - 1)

let off t k = Bytes.get_uint16_le t.offs (2 * k)

let set_off t k v = Bytes.set_uint16_le t.offs (2 * k) v

(* 8-ary hole sifts of the lower heap in slots [base, base + n) *)
let lower_sift_up t base i0 =
  let keys = t.keys in
  let hk = keys.(base + i0) and hv = off t (base + i0) in
  let i = ref i0 in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / arity in
    let kp = keys.(base + parent) and vp = off t (base + parent) in
    if kp < hk || (kp = hk && vp > hv) then begin
      keys.(base + !i) <- kp;
      set_off t (base + !i) vp;
      i := parent
    end
    else continue_ := false
  done;
  if !i <> i0 then begin
    keys.(base + !i) <- hk;
    set_off t (base + !i) hv
  end

let lower_sift_down t base n i0 =
  let keys = t.keys in
  let hk = keys.(base + i0) and hv = off t (base + i0) in
  let i = ref i0 in
  let continue_ = ref true in
  while !continue_ do
    let first = (arity * !i) + 1 in
    let last = if first + arity - 1 < n - 1 then first + arity - 1 else n - 1 in
    let largest = ref !i and lk = ref hk and lv = ref hv in
    for c = first to last do
      let kc = keys.(base + c) in
      if kc > !lk || (kc = !lk && off t (base + c) < !lv) then begin
        largest := c;
        lk := kc;
        lv := off t (base + c)
      end
    done;
    if !largest <> !i then begin
      keys.(base + !i) <- !lk;
      set_off t (base + !i) !lv;
      i := !largest
    end
    else continue_ := false
  done;
  if !i <> i0 then begin
    keys.(base + !i) <- hk;
    set_off t (base + !i) hv
  end

(* the same sifts over the upper heap, tracking each group's position *)
let upper_sift_up t i0 =
  let keys = t.ukey and ids = t.ugrp and pos = t.upos in
  let hk = keys.(i0) and hv = get32 ids i0 in
  let i = ref i0 in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / arity in
    let kp = keys.(parent) and vp = get32 ids parent in
    if kp < hk || (kp = hk && vp > hv) then begin
      keys.(!i) <- kp;
      set32 ids !i vp;
      set32 pos vp !i;
      i := parent
    end
    else continue_ := false
  done;
  if !i <> i0 then begin
    keys.(!i) <- hk;
    set32 ids !i hv;
    set32 pos hv !i
  end

let upper_sift_down t i0 =
  let keys = t.ukey and ids = t.ugrp and pos = t.upos and n = t.usize in
  let hk = keys.(i0) and hv = get32 ids i0 in
  let i = ref i0 in
  let continue_ = ref true in
  while !continue_ do
    let first = (arity * !i) + 1 in
    let last = if first + arity - 1 < n - 1 then first + arity - 1 else n - 1 in
    let largest = ref !i and lk = ref hk and lv = ref hv in
    for c = first to last do
      let kc = keys.(c) in
      if kc > !lk || (kc = !lk && get32 ids c < !lv) then begin
        largest := c;
        lk := kc;
        lv := get32 ids c
      end
    done;
    if !largest <> !i then begin
      keys.(!i) <- !lk;
      set32 ids !i !lv;
      set32 pos !lv !i;
      i := !largest
    end
    else continue_ := false
  done;
  if !i <> i0 then begin
    keys.(!i) <- hk;
    set32 ids !i hv;
    set32 pos hv !i
  end

(* re-key group [g] in the upper heap to its lower root's key, inserting
   it when absent *)
let upper_sync t g =
  let k = t.keys.(g * t.width) in
  let p = get32 t.upos g in
  if p < 0 then begin
    let p = t.usize in
    t.ukey.(p) <- k;
    set32 t.ugrp p g;
    set32 t.upos g p;
    t.usize <- p + 1;
    upper_sift_up t p
  end
  else begin
    let old = t.ukey.(p) in
    t.ukey.(p) <- k;
    if k > old then upper_sift_up t p else if k < old then upper_sift_down t p
  end

(* take group [g] out of the upper heap, which marks it empty; the last
   group fills its place and sifts whichever way its key says *)
let upper_remove t g =
  let p = get32 t.upos g in
  set32 t.upos g (-1);
  let last = t.usize - 1 in
  t.usize <- last;
  if p < last then begin
    t.ukey.(p) <- t.ukey.(last);
    set32 t.ugrp p (get32 t.ugrp last);
    set32 t.upos (get32 t.ugrp p) p;
    upper_sift_up t p;
    upper_sift_down t p
  end

(* re-key the root group to its lower root's key after that key moved
   down (or stayed); the key is read here, not passed, because a float
   argument would be boxed at the call *)
let upper_rekey_root t =
  let k = t.keys.(get32 t.ugrp 0 * t.width) in
  let old = t.ukey.(0) in
  t.ukey.(0) <- k;
  if k < old then upper_sift_down t 0

let insert t cell e =
  Metrics.incr c_inserts;
  let g = e / t.width in
  let base = g * t.width and n = group_size t g in
  if n >= t.width then invalid_arg "Two_level_heap.insert: group full";
  t.keys.(base + n) <- cell.(0);
  set_off t (base + n) (e - base);
  set_group_size t g (n + 1);
  t.total <- t.total + 1;
  lower_sift_up t base n;
  upper_sync t g

let check_nonempty t = if t.usize = 0 then invalid_arg "Two_level_heap: empty heap"

let max_elt t =
  check_nonempty t;
  let base = get32 t.ugrp 0 * t.width in
  base + off t base

let max_key_into t cell =
  check_nonempty t;
  cell.(0) <- t.ukey.(0)

(* remove the root group's lower root and fix both levels *)
let drop_max t =
  check_nonempty t;
  Metrics.incr c_pops;
  let g = get32 t.ugrp 0 in
  let base = g * t.width in
  let n = group_size t g - 1 in
  t.total <- t.total - 1;
  if n = 0 then upper_remove t g
  else begin
    set_group_size t g n;
    t.keys.(base) <- t.keys.(base + n);
    set_off t base (off t (base + n));
    lower_sift_down t base n 0;
    upper_rekey_root t
  end

(* a scan of the entry's group, then one sift of the entry that fills its
   slot: up or down, the other sift is then a no-op *)
let remove t e =
  let g = e / t.width in
  let base = g * t.width and n = group_size t g in
  let o = e - base in
  let k = ref 0 in
  while !k < n && off t (base + !k) <> o do incr k done;
  if !k < n then begin
    let n = n - 1 in
    t.total <- t.total - 1;
    if n = 0 then upper_remove t g
    else begin
      set_group_size t g n;
      if !k < n then begin
        t.keys.(base + !k) <- t.keys.(base + n);
        set_off t (base + !k) (off t (base + n));
        lower_sift_up t base !k;
        lower_sift_down t base n !k
      end;
      upper_sync t g
    end
  end

(* Every key of group [g] goes through [cell.(0)] in heap-array order; the
   group is then heapified bottom-up and re-keyed in the upper level. *)
let refresh_pair_into t g cell ~f =
  let n = group_size t g in
  if n > 0 then begin
    Metrics.incr c_refresh_pairs;
    let base = g * t.width in
    for i = base to base + n - 1 do
      cell.(0) <- t.keys.(i);
      f (base + off t i);
      t.keys.(i) <- cell.(0)
    done;
    for i = (n - 2) / arity downto 0 do
      lower_sift_down t base n i
    done;
    upper_sync t g
  end
