let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

(* CRC-32 (IEEE 802.3, the zlib polynomial), table-driven; the serving
   journal chains its records with it *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_update crc bytes off len =
  let table = Lazy.force crc_table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for k = off to off + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get bytes k)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let clamp_prob x = clamp ~lo:0.0 ~hi:1.0 x

let float_equal ?(eps = 1e-9) a b =
  let d = Float.abs (a -. b) in
  d <= eps || d <= eps *. Float.max (Float.abs a) (Float.abs b)

let sum_floats a =
  let sum = ref 0.0 and comp = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let y = a.(i) -. !comp in
    let t = !sum +. y in
    comp := t -. !sum -. y;
    sum := t
  done;
  !sum

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else sum_floats a /. float_of_int n

let argmax score a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Util.argmax: empty array";
  let best = ref 0 and best_v = ref (score a.(0)) in
  for i = 1 to n - 1 do
    let v = score a.(i) in
    if v > !best_v then begin
      best := i;
      best_v := v
    end
  done;
  !best

let rec take n l =
  match (n, l) with
  | 0, _ | _, [] -> []
  | n, x :: tl -> x :: take (n - 1) tl

let range n = List.init n (fun i -> i)

let contains_substring haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= hn && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let fold_range n ~init ~f =
  let acc = ref init in
  for i = 0 to n - 1 do
    acc := f !acc i
  done;
  !acc

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [Gc.counters] is the calling domain's; [Gc.quick_stat] would add every
   other domain's allocations. OCaml 5.1 adds an allocation made directly
   in the major heap (a block above the minor heap's size limit) to
   [major_words] only at the next minor collection, so each read is
   preceded by one; without it a pair-sized array can read as 0 words *)
let allocated_words f =
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let r = f () in
  (r, words () -. w0)

let with_index a = Array.mapi (fun i x -> (i, x)) a

let group_by key l =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let k = key x in
      let prev = try Hashtbl.find tbl k with Not_found -> [] in
      Hashtbl.replace tbl k (x :: prev))
    l;
  (* restore input order inside each bucket *)
  Hashtbl.iter (fun k v -> Hashtbl.replace tbl k (List.rev v)) tbl;
  tbl

let top_k_by k score a =
  let scored = Array.map (fun x -> (score x, x)) a in
  Array.sort (fun (s1, _) (s2, _) -> compare s2 s1) scored;
  let m = min k (Array.length a) in
  Array.init m (fun i -> snd scored.(i))
