module Err = Revmax_prelude.Err

type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type float_ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Candidate pairs live in the pack file's CSR layout, whether the instance
   was built by [create] or mapped by [of_mmap]: [row_off.(u) ..
   row_off.(u+1)) indexes user [u]'s candidate pairs (item-ascending), and a
   global {e pair id} [pid] addresses three flat Bigarrays. [create] fills
   them in place; [of_mmap] maps them from a pack file. Either way the
   O(pairs · horizon) payload lives off the OCaml heap — only the
   O(num_items) item facts and the O(num_users) row offsets enter it. *)
type t = {
  num_users : int;
  num_items : int;
  horizon : int;
  display_limit : int;
  class_of : int array;
  num_classes : int;
  class_sizes : int array;
  capacity : int array;
  saturation : float array;
  price : float array array;
  row_off : int array; (* num_users + 1 CSR offsets into the pair arrays *)
  item : int_ba; (* pid -> item id *)
  q : float_ba; (* pid * horizon + (time - 1) -> probability *)
  rating : float_ba; (* pid -> rating, NaN = absent; length 0 = no ratings *)
  num_candidate_triples : int;
  (* the view's user range [u_lo, u_hi); the full instance has [0, num_users).
     Views produced by [shard] share every array above except [capacity]
     (which holds the shard's capacity budget) — user ids stay global, so
     strategies planned on a view merge into the parent without renaming. *)
  u_lo : int;
  u_hi : int;
  (* constraint variants, sentinel-encoded so the plain REVMAX shape costs
     nothing: an empty [slot_mult] means unordered k-sets (no slates); a
     non-empty one has length [display_limit] and turns each (user,time)
     display into ordered slots, slot s scaling q(u,i,t) by
     [slot_mult.(s-1)]. [max_total = max_int] means no global quantity
     budget; anything else caps the total number of recommendations. *)
  slot_mult : float array;
  max_total : int;
}

exception Bad_field of string * string

let fail field msg = raise (Bad_field (field, msg))

let int_ba n : int_ba = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let float_ba n : float_ba = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

(* shared between [create_checked], the pack writer and [of_mmap]; class
   ids below [num_items] bound the class table by the item count *)
let check_item_arrays ~num_items ~horizon ~class_of ~capacity ~saturation ~price =
  if Array.length class_of <> num_items then
    fail "class_of"
      (Printf.sprintf "length %d differs from num_items %d" (Array.length class_of) num_items);
  if Array.length capacity <> num_items then
    fail "capacity"
      (Printf.sprintf "length %d differs from num_items %d" (Array.length capacity) num_items);
  if Array.length saturation <> num_items then
    fail "saturation"
      (Printf.sprintf "length %d differs from num_items %d" (Array.length saturation) num_items);
  if Array.length price <> num_items then
    fail "price"
      (Printf.sprintf "%d rows differ from num_items %d" (Array.length price) num_items);
  Array.iteri
    (fun i c ->
      if c < 0 then fail "class_of" (Printf.sprintf "item %d has negative class id %d" i c);
      if c >= num_items then
        fail "class_of"
          (Printf.sprintf "item %d: class id %d is not below num_items %d" i c num_items))
    class_of;
  Array.iteri
    (fun i c ->
      if c < 0 then fail "capacity" (Printf.sprintf "item %d has negative capacity %d" i c))
    capacity;
  Array.iteri
    (fun i b ->
      if b < 0.0 || b > 1.0 || Float.is_nan b then
        fail "saturation" (Printf.sprintf "item %d: %g outside [0,1]" i b))
    saturation;
  Array.iteri
    (fun i row ->
      if Array.length row <> horizon then
        fail "price"
          (Printf.sprintf "item %d: row length %d differs from horizon %d" i (Array.length row)
             horizon);
      Array.iter
        (fun p ->
          if (not (Float.is_finite p)) || p < 0.0 then
            fail "price" (Printf.sprintf "item %d: price %g not finite and non-negative" i p))
        row)
    price

(* slate multipliers: one per ordered slot, finite, within [0,1] and
   non-increasing (position effects never help a lower slot — the shape
   the greedy slot auto-assignment and the Keerthi–Tomlin model assume) *)
let check_slot_mult ~display_limit mult =
  if Array.length mult <> display_limit then
    fail "slot_mult"
      (Printf.sprintf "length %d differs from display_limit %d" (Array.length mult) display_limit);
  Array.iteri
    (fun s m ->
      if (not (Float.is_finite m)) || m < 0.0 || m > 1.0 then
        fail "slot_mult" (Printf.sprintf "slot %d: multiplier %g outside [0,1]" (s + 1) m);
      if s > 0 && m > mult.(s - 1) then
        fail "slot_mult"
          (Printf.sprintf "slot %d: multiplier %g exceeds slot %d's %g (must be non-increasing)"
             (s + 1) m s mult.(s - 1)))
    mult

let check_max_total cap =
  if cap < 0 then fail "max_total" "quantity budget must be non-negative"

let class_table class_of =
  let num_classes = Array.fold_left (fun m c -> max m (c + 1)) 0 class_of in
  let class_sizes = Array.make num_classes 0 in
  Array.iter (fun c -> class_sizes.(c) <- class_sizes.(c) + 1) class_of;
  (num_classes, class_sizes)

(* binary search for item [i] inside user [u]'s item-ascending row *)
let row_find (item : int_ba) row_off ~u ~i =
  let res = ref (-1) in
  let lo = ref row_off.(u) and hi = ref (row_off.(u + 1) - 1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = item.{mid} in
    if x = i then begin
      res := mid;
      lo := !hi + 1
    end
    else if x < i then lo := mid + 1
    else hi := mid - 1
  done;
  !res

(* ----- building the CSR arrays from an adoption list ----- *)

let check_adoption ~num_users ~num_items ~horizon (u, i, qs) =
  if u < 0 || u >= num_users || i < 0 || i >= num_items then
    fail "adoption" (Printf.sprintf "pair (%d, %d) out of range" u i);
  if Array.length qs <> horizon then
    fail "adoption"
      (Printf.sprintf "pair (%d, %d): vector length %d differs from horizon %d" u i
         (Array.length qs) horizon);
  (* a [for] loop, not [Array.iter]: its closure would box every float *)
  for d = 0 to horizon - 1 do
    let p = qs.(d) in
    if p < 0.0 || p > 1.0 || Float.is_nan p then
      fail "adoption" (Printf.sprintf "pair (%d, %d): probability %g outside [0,1]" u i p)
  done

(* The error path: raise the first faulty element of [adoption] in list
   order — out of range, of the wrong length, with a probability outside
   [0,1], or repeating an earlier element's pair. Only this path keeps a
   table of the pairs seen. *)
let first_fault ~num_users ~num_items ~horizon adoption =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun ((u, i, _) as e) ->
      check_adoption ~num_users ~num_items ~horizon e;
      if Hashtbl.mem seen (u, i) then
        fail "adoption" (Printf.sprintf "duplicate (user, item) pair (%d, %d)" u i);
      Hashtbl.replace seen (u, i) ())
    adoption;
  invalid_arg "Instance.first_fault: no faulty element"

(* an in-place heapsort of row [lo, lo + n) of [item], so a row of any
   length sorts in O(n log n) without allocating *)
let rec sift_down (item : int_ba) lo root len =
  let c = (2 * root) + 1 in
  if c < len then begin
    let c = if c + 1 < len && item.{lo + c} < item.{lo + c + 1} then c + 1 else c in
    if item.{lo + root} < item.{lo + c} then begin
      let x = item.{lo + root} in
      item.{lo + root} <- item.{lo + c};
      item.{lo + c} <- x;
      sift_down item lo c len
    end
  end

let sort_row item lo n =
  for root = (n / 2) - 1 downto 0 do
    sift_down item lo root n
  done;
  for last = n - 1 downto 1 do
    let x = item.{lo} in
    item.{lo} <- item.{lo + last};
    item.{lo + last} <- x;
    sift_down item lo 0 last
  done

(* Counts pairs per user, lays each row's items out in list order and
   sorts them in place, then writes every entry's q block at its pair id —
   no per-pair vector, copy or table on the OCaml heap. Returns the row
   offsets, the pair items and q, and the candidate triple count. *)
let build_rows ~num_users ~num_items ~horizon adoption =
  let row_off = Array.make (num_users + 1) 0 in
  (try
     List.iter
       (fun ((u, _, _) as e) ->
         check_adoption ~num_users ~num_items ~horizon e;
         row_off.(u + 1) <- row_off.(u + 1) + 1)
       adoption
   with Bad_field _ -> first_fault ~num_users ~num_items ~horizon adoption);
  for u = 0 to num_users - 1 do
    row_off.(u + 1) <- row_off.(u + 1) + row_off.(u)
  done;
  let num_pairs = row_off.(num_users) in
  let item = int_ba num_pairs and q = float_ba (num_pairs * horizon) in
  let next = Array.sub row_off 0 num_users in
  List.iter
    (fun (u, i, _) ->
      item.{next.(u)} <- i;
      next.(u) <- next.(u) + 1)
    adoption;
  for u = 0 to num_users - 1 do
    let lo = row_off.(u) in
    sort_row item lo (row_off.(u + 1) - lo);
    for pid = lo + 1 to row_off.(u + 1) - 1 do
      if item.{pid - 1} = item.{pid} then first_fault ~num_users ~num_items ~horizon adoption
    done
  done;
  let triples = ref 0 in
  List.iter
    (fun (u, i, qs) ->
      let pid = row_find item row_off ~u ~i in
      for d = 0 to horizon - 1 do
        let p = qs.(d) in
        q.{(pid * horizon) + d} <- p;
        if p > 0.0 then incr triples
      done)
    adoption;
  (row_off, item, q, !triples)

(* ratings live per candidate pair: NaN marks an absent one, so neither a
   NaN rating nor one on a non-candidate pair is representable; a later
   rating of the same pair replaces an earlier one *)
let build_ratings ~num_users ~num_items row_off item ratings =
  if ratings = [] then float_ba 0
  else begin
    let rating = float_ba (Bigarray.Array1.dim item) in
    Bigarray.Array1.fill rating Float.nan;
    List.iter
      (fun (u, i, r) ->
        if u < 0 || u >= num_users || i < 0 || i >= num_items then
          fail "ratings" (Printf.sprintf "pair (%d, %d) out of range" u i);
        let pid = row_find item row_off ~u ~i in
        if pid < 0 then fail "ratings" (Printf.sprintf "pair (%d, %d) is not a candidate" u i);
        if Float.is_nan r then fail "ratings" (Printf.sprintf "pair (%d, %d): rating is NaN" u i);
        rating.{pid} <- r)
      ratings;
    rating
  end

let create_checked ~num_users ~num_items ~horizon ~display_limit ~class_of ~capacity ~saturation
    ~price ?(ratings = []) ?slot_mult ?max_total ~adoption () =
  try
    if num_users < 0 then fail "num_users" "negative number of users";
    if num_items < 0 then fail "num_items" "negative number of items";
    if horizon < 1 then fail "horizon" "horizon must be at least 1";
    if display_limit < 1 then fail "display_limit" "display_limit must be at least 1";
    check_item_arrays ~num_items ~horizon ~class_of ~capacity ~saturation ~price;
    let slot_mult =
      match slot_mult with
      | None -> [||]
      | Some m ->
          check_slot_mult ~display_limit m;
          Array.copy m
    in
    let max_total =
      match max_total with
      | None -> max_int
      | Some cap ->
          check_max_total cap;
          cap
    in
    let num_classes, class_sizes = class_table class_of in
    let row_off, item, q, triples = build_rows ~num_users ~num_items ~horizon adoption in
    let rating = build_ratings ~num_users ~num_items row_off item ratings in
    Ok
      {
        num_users;
        num_items;
        horizon;
        display_limit;
        class_of = Array.copy class_of;
        num_classes;
        class_sizes;
        capacity = Array.copy capacity;
        saturation = Array.copy saturation;
        price = Array.map Array.copy price;
        row_off;
        item;
        q;
        rating;
        num_candidate_triples = triples;
        u_lo = 0;
        u_hi = num_users;
        slot_mult;
        max_total;
      }
  with Bad_field (field, msg) -> Error (Err.Invalid_instance { field; msg })

let create ~num_users ~num_items ~horizon ~display_limit ~class_of ~capacity ~saturation ~price
    ?ratings ?slot_mult ?max_total ~adoption () =
  match
    create_checked ~num_users ~num_items ~horizon ~display_limit ~class_of ~capacity ~saturation
      ~price ?ratings ?slot_mult ?max_total ~adoption ()
  with
  | Ok t -> t
  | Error e -> invalid_arg ("Instance.create: " ^ Err.message e)

let num_users t = t.num_users
let num_items t = t.num_items
let horizon t = t.horizon
let display_limit t = t.display_limit
let num_classes t = t.num_classes

let class_of t i = t.class_of.(i)
let class_size t c = t.class_sizes.(c)
let capacity t i = t.capacity.(i)
let saturation t i = t.saturation.(i)
let saturation_into t i cells k = cells.(k) <- t.saturation.(i)

let check_time t time =
  if time < 1 || time > t.horizon then invalid_arg "Instance: time step out of range"

let price t ~i ~time =
  check_time t time;
  t.price.(i).(time - 1)

let price_into t ~i ~time cells k =
  check_time t time;
  cells.(k) <- t.price.(i).(time - 1)

(* ----- pair-indexed access (the out-of-core hot path) ----- *)

let pair_count t = t.row_off.(t.num_users)

let pair_range ?users t =
  let lo, hi = match users with Some r -> r | None -> (t.u_lo, t.u_hi) in
  (t.row_off.(lo), t.row_off.(hi))

let pair_item t pid = t.item.{pid}

let pair_q t ~pid ~time = t.q.{(pid * t.horizon) + time - 1}

let pair_q_into t ~pid ~time cells k = cells.(k) <- t.q.{(pid * t.horizon) + time - 1}

let pair_find t ~u ~i = row_find t.item t.row_off ~u ~i

(* largest u with row_off.(u) <= pid; pids are dense so this is total *)
let pair_user t pid =
  let lo = ref 0 and hi = ref (t.num_users - 1) and res = ref 0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.row_off.(mid) <= pid then begin
      res := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !res

let pair_row t u = (t.row_off.(u), t.row_off.(u + 1))

let row_offset t u = t.row_off.(u)

let iter_candidate_pairs ?users t f =
  let lo, hi = match users with Some r -> r | None -> (t.u_lo, t.u_hi) in
  for u = lo to hi - 1 do
    for pid = t.row_off.(u) to t.row_off.(u + 1) - 1 do
      f ~u ~pid
    done
  done

let q t ~u ~i ~time =
  check_time t time;
  let pid = pair_find t ~u ~i in
  if pid < 0 then 0.0 else t.q.{(pid * t.horizon) + time - 1}

let is_candidate t ~u ~i = pair_find t ~u ~i >= 0

let candidates t u =
  let off = t.row_off.(u) in
  Array.init
    (t.row_off.(u + 1) - off)
    (fun k ->
      let pid = off + k in
      (t.item.{pid}, Array.init t.horizon (fun d -> t.q.{(pid * t.horizon) + d})))

let candidate_items_in_class t ~u ~cls =
  let acc = ref [] in
  for pid = t.row_off.(u + 1) - 1 downto t.row_off.(u) do
    let i = t.item.{pid} in
    if t.class_of.(i) = cls then acc := i :: !acc
  done;
  !acc

let num_candidate_triples t = t.num_candidate_triples

let iter_candidate_triples t f =
  for u = t.u_lo to t.u_hi - 1 do
    for pid = t.row_off.(u) to t.row_off.(u + 1) - 1 do
      let i = t.item.{pid} in
      for time = 1 to t.horizon do
        let p = pair_q t ~pid ~time in
        if p > 0.0 then f (Triple.make ~u ~i ~t:time) p
      done
    done
  done

let rating t ~u ~i =
  if Bigarray.Array1.dim t.rating = 0 then None
  else
    let pid = pair_find t ~u ~i in
    if pid < 0 then None
    else
      let r = t.rating.{pid} in
      if Float.is_nan r then None else Some r

(* ----- constraint variants: slates and quantity budgets ----- *)

let is_slate t = Array.length t.slot_mult > 0

let slot_multipliers t = if is_slate t then Some (Array.copy t.slot_mult) else None

(* position multiplier of 1-based [slot]; 1.0 on non-slate instances, so
   callers can fold it into q(u,i,t) unconditionally (q *. 1.0 is
   IEEE-exact, keeping the degenerate path bit-identical) *)
let slot_factor t ~slot =
  if not (is_slate t) then 1.0
  else begin
    if slot < 1 || slot > t.display_limit then invalid_arg "Instance.slot_factor: slot out of range";
    t.slot_mult.(slot - 1)
  end

let max_total t = if t.max_total = max_int then None else Some t.max_total

let max_total_cap t = t.max_total

let with_slate ?display_limit t mult =
  let display_limit = Option.value display_limit ~default:t.display_limit in
  (try
     if display_limit < 1 then fail "display_limit" "display_limit must be at least 1";
     check_slot_mult ~display_limit mult
   with Bad_field (field, msg) ->
     invalid_arg (Printf.sprintf "Instance.with_slate: %s: %s" field msg));
  { t with display_limit; slot_mult = Array.copy mult }

let with_max_total t cap =
  (try check_max_total cap
   with Bad_field (field, msg) ->
     invalid_arg (Printf.sprintf "Instance.with_max_total: %s: %s" field msg));
  { t with max_total = cap }

let without_quantity_budget t = { t with max_total = max_int }

let with_saturation_disabled t = { t with saturation = Array.make t.num_items 1.0 }

let with_prices t price =
  if Array.length price <> t.num_items then invalid_arg "Instance.with_prices: price rows";
  Array.iter
    (fun row ->
      if Array.length row <> t.horizon then invalid_arg "Instance.with_prices: price row length";
      Array.iter
        (fun p ->
          if (not (Float.is_finite p)) || p < 0.0 then
            invalid_arg "Instance.with_prices: prices must be finite and non-negative")
        row)
    price;
  { t with price = Array.map Array.copy price }

(* ----- user-sharded views ----- *)

let user_range t = (t.u_lo, t.u_hi)

let view_triple_count t ~u_lo ~u_hi =
  let n = ref 0 in
  for u = u_lo to u_hi - 1 do
    for pid = t.row_off.(u) to t.row_off.(u + 1) - 1 do
      for time = 1 to t.horizon do
        if pair_q t ~pid ~time > 0.0 then incr n
      done
    done
  done;
  !n

let shard ~shards t =
  if shards < 1 then invalid_arg "Instance.shard: need at least one shard";
  if t.u_lo <> 0 || t.u_hi <> t.num_users then
    invalid_arg "Instance.shard: cannot re-shard a shard view";
  let n = t.num_users in
  let base = n / shards and extra = n mod shards in
  Array.init shards (fun s ->
      let u_lo = (s * base) + min s extra in
      let u_hi = u_lo + base + if s < extra then 1 else 0 in
      let n_s = u_hi - u_lo in
      {
        t with
        (* water-filling: a shard may use an item up to min(q_i, its user
           count) — capacity counts distinct users, so no shard can need
           more; global over-subscription is resolved by Shard_greedy's
           reconciliation round *)
        capacity = Array.map (fun q -> min q n_s) t.capacity;
        num_candidate_triples = view_triple_count t ~u_lo ~u_hi;
        u_lo;
        u_hi;
        (* the quantity budget splits the same way: min(cap, the shard's
           selection ceiling), with the merge-time trim resolving
           over-subscription *)
        max_total =
          (if t.max_total = max_int then max_int
           else min t.max_total (n_s * t.horizon * t.display_limit));
      })

(* ----- the pack file: an out-of-core instance representation -----

   Little-endian, 64-bit words. Layout:

     header        12 × i64 (see the slot list below)
     class_of      num_items × i64
     capacity      num_items × i64
     saturation    num_items × f64
     price         num_items · horizon × f64
     pair_q        num_pairs · horizon × f64     (streamed by the writer)
     pair_item     num_pairs × i64
     row_off       (num_users + 1) × i64
     pair_rating   num_pairs × f64               (only when has_ratings = 1)

   [of_mmap] reads the item-level sections and row offsets into ordinary
   heap arrays (they are O(num_items + num_users)) and memory-maps the
   three pair sections, which dominate the footprint. The endianness
   sentinel is verified through the same [Bigarray.int] mapped-read path
   the pair data uses, so a byte-order or word-size mismatch fails at open
   instead of corrupting silently. *)
module Pack = struct
  let magic = "REVMAXPK"
  let version = 1
  let sentinel = 0x0123456789ABCDEF

  (* header slots, i64 each; slot 0 holds the magic bytes *)
  let s_version = 1
  let s_sentinel = 2
  let s_num_users = 3
  let s_num_items = 4
  let s_horizon = 5
  let s_display_limit = 6
  let s_num_pairs = 7
  let s_num_triples = 8
  let s_has_ratings = 9

  (* constraint-variant slots (0 in packs written before they existed, which
     decodes as "no budget, no slate" — old packs stay readable): slot 10
     holds max_total + 1 (0 = unbounded); slot 11 flags a trailing
     display_limit × f64 slot-multiplier section. *)
  let s_max_total_plus1 = 10
  let s_has_slate = 11
  let header_words = 12
  let header_bytes = 8 * header_words

  (* The q stream goes straight into the pack. The two per-pair trailer
     sections cannot (they follow the q stream), so they stream to sibling
     scratch files that [finish] appends and removes: the writer's memory
     stays O(items + users), whatever the pair count. *)
  type writer = {
    oc : out_channel;
    path : string;
    w_num_users : int;
    w_num_items : int;
    w_horizon : int;
    mutable w_items : out_channel option; (* pair item ids, i64; opened at the first pair *)
    mutable w_ratings : out_channel option;
        (* pair ratings, f64, NaN = absent; opened at the first rating given *)
    w_row_off : int array;
    w_slot_mult : float array; (* empty = no slate section *)
    mutable w_next_user : int;
    mutable w_pairs : int;
    mutable w_triples : int;
    mutable w_closed : bool;
    b8 : Bytes.t;
  }

  let put_i64 w v =
    Bytes.set_int64_le w.b8 0 (Int64.of_int v);
    output_bytes w.oc w.b8

  let put_f64 w v =
    Bytes.set_int64_le w.b8 0 (Int64.bits_of_float v);
    output_bytes w.oc w.b8

  let items_path w = w.path ^ ".items"
  let ratings_path w = w.path ^ ".ratings"

  let scratch_i64 w oc v =
    Bytes.set_int64_le w.b8 0 (Int64.of_int v);
    output_bytes oc w.b8

  let scratch_f64 w oc v =
    Bytes.set_int64_le w.b8 0 (Int64.bits_of_float v);
    output_bytes oc w.b8

  (* copy a closed scratch file to the end of the pack, then remove it *)
  let append_scratch w path =
    let buf = Bytes.create 65536 in
    In_channel.with_open_bin path (fun ic ->
        let rec copy () =
          let n = input ic buf 0 (Bytes.length buf) in
          if n > 0 then begin
            output w.oc buf 0 n;
            copy ()
          end
        in
        copy ());
    Sys.remove path

  let create_writer ~path ~num_users ~num_items ~horizon ~display_limit ~class_of ~capacity
      ~saturation ~price ?slot_mult ?max_total () =
    if num_users < 0 then invalid_arg "Instance.Pack.create_writer: negative number of users";
    if num_items < 0 then invalid_arg "Instance.Pack.create_writer: negative number of items";
    if horizon < 1 then invalid_arg "Instance.Pack.create_writer: horizon must be at least 1";
    if display_limit < 1 then
      invalid_arg "Instance.Pack.create_writer: display_limit must be at least 1";
    (try
       check_item_arrays ~num_items ~horizon ~class_of ~capacity ~saturation ~price;
       (match slot_mult with Some m -> check_slot_mult ~display_limit m | None -> ());
       match max_total with Some cap -> check_max_total cap | None -> ()
     with Bad_field (field, msg) ->
       invalid_arg (Printf.sprintf "Instance.Pack.create_writer: %s: %s" field msg));
    let oc = open_out_bin path in
    let w =
      {
        oc;
        path;
        w_num_users = num_users;
        w_num_items = num_items;
        w_horizon = horizon;
        w_items = None;
        w_ratings = None;
        w_row_off = Array.make (num_users + 1) 0;
        w_slot_mult = (match slot_mult with Some m -> Array.copy m | None -> [||]);
        w_next_user = 0;
        w_pairs = 0;
        w_triples = 0;
        w_closed = false;
        b8 = Bytes.create 8;
      }
    in
    output_string oc magic;
    put_i64 w version;
    put_i64 w sentinel;
    put_i64 w num_users;
    put_i64 w num_items;
    put_i64 w horizon;
    put_i64 w display_limit;
    (* num_pairs / num_triples / has_ratings patched by [finish] *)
    for _ = s_num_pairs to s_has_ratings do
      put_i64 w 0
    done;
    put_i64 w (match max_total with Some cap -> cap + 1 | None -> 0);
    put_i64 w (if Array.length w.w_slot_mult > 0 then 1 else 0);
    Array.iter (put_i64 w) class_of;
    Array.iter (put_i64 w) capacity;
    Array.iter (put_f64 w) saturation;
    Array.iter (fun row -> Array.iter (put_f64 w) row) price;
    w

  let add_user w ~u ?ratings row =
    if w.w_closed then invalid_arg "Instance.Pack.add_user: writer is closed";
    if u <> w.w_next_user then
      invalid_arg
        (Printf.sprintf "Instance.Pack.add_user: users must arrive in order (expected %d, got %d)"
           w.w_next_user u);
    (match ratings with
    | Some r when Array.length r <> Array.length row ->
        invalid_arg "Instance.Pack.add_user: ratings array must align with the candidate row"
    | _ -> ());
    let prev = ref (-1) in
    Array.iteri
      (fun k (i, qs) ->
        if i <= !prev || i < 0 || i >= w.w_num_items then
          invalid_arg
            (Printf.sprintf
               "Instance.Pack.add_user: user %d: items must be strictly ascending and in range" u);
        prev := i;
        if Array.length qs <> w.w_horizon then
          invalid_arg
            (Printf.sprintf "Instance.Pack.add_user: pair (%d, %d): vector length %d, horizon %d"
               u i (Array.length qs) w.w_horizon);
        Array.iter
          (fun p ->
            if p < 0.0 || p > 1.0 || Float.is_nan p then
              invalid_arg
                (Printf.sprintf "Instance.Pack.add_user: pair (%d, %d): probability outside [0,1]"
                   u i);
            if p > 0.0 then w.w_triples <- w.w_triples + 1;
            put_f64 w p)
          qs;
        let items =
          match w.w_items with
          | Some oc -> oc
          | None ->
              let oc = open_out_bin (items_path w) in
              w.w_items <- Some oc;
              oc
        in
        scratch_i64 w items i;
        (* ratings spill only once the first one is given: the pairs
           before it are backfilled as absent *)
        let rating = match ratings with Some r -> r.(k) | None -> None in
        (match (w.w_ratings, rating) with
        | Some oc, r -> scratch_f64 w oc (Option.value r ~default:Float.nan)
        | None, Some v ->
            let oc = open_out_bin (ratings_path w) in
            w.w_ratings <- Some oc;
            for _ = 1 to w.w_pairs do
              scratch_f64 w oc Float.nan
            done;
            scratch_f64 w oc v
        | None, None -> ());
        w.w_pairs <- w.w_pairs + 1)
      row;
    w.w_next_user <- u + 1;
    w.w_row_off.(u + 1) <- w.w_pairs

  (* the slate section, then the deferred header slots; closes the file *)
  let close_with_counts w ~pairs ~triples ~has_ratings =
    w.w_closed <- true;
    Array.iter (put_f64 w) w.w_slot_mult;
    seek_out w.oc (8 * s_num_pairs);
    put_i64 w pairs;
    put_i64 w triples;
    put_i64 w (if has_ratings then 1 else 0);
    close_out w.oc

  let finish w =
    if w.w_closed then invalid_arg "Instance.Pack.finish: writer is closed";
    if w.w_next_user <> w.w_num_users then
      invalid_arg
        (Printf.sprintf "Instance.Pack.finish: %d of %d users added" w.w_next_user w.w_num_users);
    Option.iter
      (fun oc ->
        close_out oc;
        append_scratch w (items_path w))
      w.w_items;
    Array.iter (put_i64 w) w.w_row_off;
    Option.iter
      (fun oc ->
        close_out oc;
        append_scratch w (ratings_path w))
      w.w_ratings;
    close_with_counts w ~pairs:w.w_pairs ~triples:w.w_triples ~has_ratings:(Option.is_some w.w_ratings)
end

(* the arrays are the pack's sections, so they are written as they are *)
let pack_to_file t path =
  if t.u_lo <> 0 || t.u_hi <> t.num_users then
    invalid_arg "Instance.pack_to_file: cannot pack a shard view";
  let w =
    Pack.create_writer ~path ~num_users:t.num_users ~num_items:t.num_items ~horizon:t.horizon
      ~display_limit:t.display_limit ~class_of:t.class_of ~capacity:t.capacity
      ~saturation:t.saturation ~price:t.price ?slot_mult:(slot_multipliers t)
      ?max_total:(max_total t) ()
  in
  let pairs = pair_count t in
  for k = 0 to (pairs * t.horizon) - 1 do
    Pack.put_f64 w t.q.{k}
  done;
  for pid = 0 to pairs - 1 do
    Pack.put_i64 w t.item.{pid}
  done;
  Array.iter (Pack.put_i64 w) t.row_off;
  let has_ratings = Bigarray.Array1.dim t.rating > 0 in
  if has_ratings then
    for pid = 0 to pairs - 1 do
      Pack.put_f64 w t.rating.{pid}
    done;
  Pack.close_with_counts w ~pairs ~triples:t.num_candidate_triples ~has_ratings

let of_mmap_checked path =
  try
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let file_size = (Unix.fstat fd).Unix.st_size in
    if file_size < Pack.header_bytes then fail "header" "file shorter than the pack header";
    let hdr = Bytes.create Pack.header_bytes in
    let rec really_read off len =
      if len > 0 then begin
        let k = Unix.read fd hdr off len in
        if k = 0 then fail "header" "unexpected end of file";
        really_read (off + k) (len - k)
      end
    in
    really_read 0 Pack.header_bytes;
    if Bytes.sub_string hdr 0 8 <> Pack.magic then fail "magic" "not a REVMAXPK pack file";
    let slot s = Int64.to_int (Bytes.get_int64_le hdr (8 * s)) in
    if slot Pack.s_version <> Pack.version then
      fail "version" (Printf.sprintf "unsupported pack version %d" (slot Pack.s_version));
    let num_users = slot Pack.s_num_users in
    let num_items = slot Pack.s_num_items in
    let horizon = slot Pack.s_horizon in
    let display_limit = slot Pack.s_display_limit in
    let num_pairs = slot Pack.s_num_pairs in
    let num_triples = slot Pack.s_num_triples in
    let has_ratings = slot Pack.s_has_ratings <> 0 in
    let max_total_plus1 = slot Pack.s_max_total_plus1 in
    let has_slate = slot Pack.s_has_slate <> 0 in
    if num_users < 0 || num_items < 0 || num_pairs < 0 || horizon < 1 || display_limit < 1 then
      fail "header" "dimensions out of range";
    if max_total_plus1 < 0 then fail "max_total" "quantity budget out of range";
    (* every section is whole words, so each count is held to the file's
       word count before a product is formed: [expected_words] is a sum of
       six terms of at most [words] each and cannot overflow *)
    let words = file_size / 8 in
    let fits n ~per = n = 0 || (per > 0 && n <= words / per) in
    if
      not
        (fits num_items ~per:(3 + horizon)
        && fits num_pairs ~per:(horizon + 1)
        && num_users < words
        && ((not has_slate) || display_limit <= words))
    then fail "size" (Printf.sprintf "header counts exceed the file's %d bytes" file_size);
    let expected_words =
      Pack.header_words
      + (num_items * (3 + horizon))
      + (num_pairs * (horizon + 1))
      + (num_users + 1)
      + (if has_ratings then num_pairs else 0)
      + if has_slate then display_limit else 0
    in
    if file_size mod 8 <> 0 || words <> expected_words then
      fail "size"
        (Printf.sprintf "file is %d bytes, header implies %d" file_size (8 * expected_words));
    let map_i64 pos dim : int_ba =
      if dim = 0 then int_ba 0
      else
        Bigarray.array1_of_genarray
          (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int Bigarray.c_layout false [| dim |])
    in
    let map_f64 pos dim : float_ba =
      if dim = 0 then float_ba 0
      else
        Bigarray.array1_of_genarray
          (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.float64 Bigarray.c_layout false
             [| dim |])
    in
    (* verify the sentinel through the same mapped-int read path the pair
       data uses: catches byte-order and word-size mismatches at open *)
    let sent = map_i64 (8 * Pack.s_sentinel) 1 in
    if sent.{0} <> Pack.sentinel then
      fail "endianness" "pack file written with a different byte order or word size";
    let off_class = Pack.header_bytes in
    let off_cap = off_class + (8 * num_items) in
    let off_sat = off_cap + (8 * num_items) in
    let off_price = off_sat + (8 * num_items) in
    let off_q = off_price + (8 * num_items * horizon) in
    let off_item = off_q + (8 * num_pairs * horizon) in
    let off_row = off_item + (8 * num_pairs) in
    let off_rating = off_row + (8 * (num_users + 1)) in
    let off_slate = off_rating + if has_ratings then 8 * num_pairs else 0 in
    (* item-level facts and row offsets are O(items + users): copy them to
       heap arrays for ordinary array access *)
    let class_ba = map_i64 off_class num_items in
    let class_of = Array.init num_items (fun i -> class_ba.{i}) in
    let cap_ba = map_i64 off_cap num_items in
    let capacity = Array.init num_items (fun i -> cap_ba.{i}) in
    let sat_ba = map_f64 off_sat num_items in
    let saturation = Array.init num_items (fun i -> sat_ba.{i}) in
    let price_ba = map_f64 off_price (num_items * horizon) in
    let price =
      Array.init num_items (fun i -> Array.init horizon (fun d -> price_ba.{(i * horizon) + d}))
    in
    check_item_arrays ~num_items ~horizon ~class_of ~capacity ~saturation ~price;
    let row_ba = map_i64 off_row (num_users + 1) in
    let row_off = Array.init (num_users + 1) (fun u -> row_ba.{u}) in
    if row_off.(0) <> 0 then fail "row_off" "offsets must start at 0";
    for u = 0 to num_users - 1 do
      if row_off.(u + 1) < row_off.(u) then fail "row_off" "offsets must be non-decreasing"
    done;
    if row_off.(num_users) <> num_pairs then
      fail "row_off" "offsets must end at the pair count";
    let item = map_i64 off_item num_pairs in
    let q = map_f64 off_q (num_pairs * horizon) in
    let rating =
      if has_ratings then map_f64 off_rating num_pairs else float_ba 0
    in
    let slot_mult =
      if not has_slate then [||]
      else begin
        let ba = map_f64 off_slate display_limit in
        let m = Array.init display_limit (fun s -> ba.{s}) in
        check_slot_mult ~display_limit m;
        m
      end
    in
    (* one integrity pass over the mapped pair data: rows item-ascending
       and in range, probabilities in [0,1], and the triple count matches
       the header. Also pre-faults the pages the planner will touch. *)
    let triples = ref 0 in
    for u = 0 to num_users - 1 do
      let prev = ref (-1) in
      for pid = row_off.(u) to row_off.(u + 1) - 1 do
        let i = item.{pid} in
        if i <= !prev || i < 0 || i >= num_items then
          fail "pair_item" (Printf.sprintf "user %d: items not strictly ascending in range" u);
        prev := i;
        for d = 0 to horizon - 1 do
          let p = q.{(pid * horizon) + d} in
          if p < 0.0 || p > 1.0 || Float.is_nan p then
            fail "pair_q" (Printf.sprintf "pair (%d, %d): probability outside [0,1]" u i);
          if p > 0.0 then incr triples
        done
      done
    done;
    if !triples <> num_triples then
      fail "num_candidate_triples"
        (Printf.sprintf "header claims %d candidate triples, data holds %d" num_triples !triples);
    let num_classes, class_sizes = class_table class_of in
    Ok
      {
        num_users;
        num_items;
        horizon;
        display_limit;
        class_of;
        num_classes;
        class_sizes;
        capacity;
        saturation;
        price;
        row_off;
        item;
        q;
        rating;
        num_candidate_triples = num_triples;
        u_lo = 0;
        u_hi = num_users;
        slot_mult;
        max_total = (if max_total_plus1 = 0 then max_int else max_total_plus1 - 1);
      }
  with
  | Bad_field (field, msg) -> Error (Err.Invalid_instance { field; msg })
  | Unix.Unix_error (e, _, _) ->
      Error (Err.Invalid_instance { field = "file"; msg = Unix.error_message e })
  | Sys_error msg -> Error (Err.Invalid_instance { field = "file"; msg })

let of_mmap path =
  match of_mmap_checked path with
  | Ok t -> t
  | Error e -> invalid_arg ("Instance.of_mmap: " ^ Err.message e)

let pp_stats ppf t =
  Format.fprintf ppf "users=%d items=%d classes=%d T=%d k=%d candidate-triples=%d" t.num_users
    t.num_items t.num_classes t.horizon t.display_limit t.num_candidate_triples;
  if is_slate t then
    Format.fprintf ppf " slate=[%s]"
      (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%g") t.slot_mult)));
  if t.max_total <> max_int then Format.fprintf ppf " max-total=%d" t.max_total
