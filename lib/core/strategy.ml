module Err = Revmax_prelude.Err

type t = {
  inst : Instance.t;
  ctx : Chain.ctx; (* oracle cells and 1/Δt table, shared by every chain *)
  (* (u * num_classes + cls) -> array-backed chain with cached aggregates.
     Deliberately a hashtable, not a flat array: [iter_chains] visits in
     table order and [Revenue.total_incremental] folds a float sum over
     that visit, so the container must preserve the historical iteration
     order exactly. *)
  chains : (int, Chain.t) Hashtbl.t;
  horizon : int;
  (* The feasibility bookkeeping lives in flat arrays sized by the view —
     these are probed on [add]/[can_add], which sit on the accept path of
     every greedy selection, and an array read replaces a hashtable probe.
     Display fill is indexed by the view's users and everything per pair
     by the instance's CSR pair ids, so the arrays are O(view users + view
     candidate pairs), never O(num_users) or O(num_items · num_users) — a
     dense (i, u) grid would be 80 GB at 10^6 users × 10^4 items, and a
     shard view keeps the parent's global user count. Users and pairs
     outside the view (a base strategy's out-of-view triples), or pairs
     without a candidate pair id at all, spill into the overflow tables,
     which stay empty on every planner path. *)
  ulo : int;
  uhi : int;
  display : int array; (* ((u - ulo) * (horizon+1)) + time -> #items displayed *)
  display_overflow : (int, int) Hashtbl.t; (* (u * (horizon+1)) + time, out-of-view users *)
  plo : int;
  phi : int;
  (* membership: bit ((pid - plo) * horizon + time - 1) is set iff
     (u, i, time) is a member, for the view's pairs; an overflow pair's
     members are found in its chain *)
  member : Bytes.t;
  pair_reps : int array; (* (pid - plo) -> #triples of this candidate (user, item) pair *)
  pair_overflow : (int, int) Hashtbl.t; (* (i * num_users) + u for out-of-range pairs *)
  item_distinct : int array; (* item -> #distinct users holding it *)
  (* slate bookkeeping, touched only when the instance carries position
     multipliers: per ((u * (horizon+1) + time) * (k+1) + slot) occupancy
     counts (sparse — O(members), not O(users · horizon · k)); each
     member's own slot is kept in its chain. On plain instances the table
     stays empty and no [add]/[remove] path reads it. *)
  slot_occ : (int, int) Hashtbl.t;
  mutable cardinality : int;
}

let create inst =
  let plo, phi = Instance.pair_range inst in
  let ulo, uhi = Instance.user_range inst in
  let horizon = Instance.horizon inst in
  {
    inst;
    ctx = Chain.context inst;
    chains = Hashtbl.create 256;
    horizon;
    ulo;
    uhi;
    display = Array.make ((uhi - ulo) * (horizon + 1)) 0;
    display_overflow = Hashtbl.create 16;
    plo;
    phi;
    member = Bytes.make ((((phi - plo) * horizon) + 7) / 8) '\000';
    pair_reps = Array.make (phi - plo) 0;
    pair_overflow = Hashtbl.create 16;
    item_distinct = Array.make (Instance.num_items inst) 0;
    slot_occ = Hashtbl.create 16;
    cardinality = 0;
  }

let count tbl key = match Hashtbl.find_opt tbl key with Some n -> n | None -> 0

(* add [delta] to a sparse count, dropping keys that reach 0; returns the
   previous count *)
let bump tbl key delta =
  let prev = count tbl key in
  let next = prev + delta in
  if next = 0 then Hashtbl.remove tbl key else Hashtbl.replace tbl key next;
  prev

(* a pair id relative to the view, or -1 when it is none of the view's
   (or [pid] is -1, no candidate pair at all) *)
let rel_of_pid t pid = if pid >= t.plo && pid < t.phi then pid - t.plo else -1

let rel_pair t ~u ~i = rel_of_pid t (Instance.pair_find t.inst ~u ~i)

let overflow_key t ~u ~i = (i * Instance.num_users t.inst) + u

(* add [delta] to the pair's repetition count, returning the previous
   count (the 0 -> 1 and 1 -> 0 edges drive [item_distinct]) *)
let bump_pair t ~rel ~u ~i delta =
  if rel >= 0 then begin
    let prev = t.pair_reps.(rel) in
    t.pair_reps.(rel) <- prev + delta;
    prev
  end
  else bump t.pair_overflow (overflow_key t ~u ~i) delta

let pair_reps_count t ~u ~i =
  let rel = rel_pair t ~u ~i in
  if rel >= 0 then t.pair_reps.(rel) else count t.pair_overflow (overflow_key t ~u ~i)

let member_bit t ~rel ~time = (rel * t.horizon) + time - 1

let get_member t k = Char.code (Bytes.get t.member (k lsr 3)) land (1 lsl (k land 7)) <> 0

let set_member t k on =
  let b = Char.code (Bytes.get t.member (k lsr 3)) in
  let m = 1 lsl (k land 7) in
  Bytes.set t.member (k lsr 3) (Char.unsafe_chr (if on then b lor m else b land lnot m))

let display_stride t = t.horizon + 1

let display_count t ~u ~time =
  if u >= t.ulo && u < t.uhi then t.display.(((u - t.ulo) * display_stride t) + time)
  else count t.display_overflow ((u * display_stride t) + time)

let bump_display t ~u ~time delta =
  if u >= t.ulo && u < t.uhi then begin
    let k = ((u - t.ulo) * display_stride t) + time in
    t.display.(k) <- t.display.(k) + delta
  end
  else ignore (bump t.display_overflow ((u * display_stride t) + time) delta)

let chain_key t ~u ~i = (u * Instance.num_classes t.inst) + Instance.class_of t.inst i

let find_chain t ~u ~i = Hashtbl.find_opt t.chains (chain_key t ~u ~i)

let in_range t ~u ~i ~time =
  u >= 0 && u < Instance.num_users t.inst && i >= 0 && i < Instance.num_items t.inst
  && time >= 1 && time <= t.horizon

(* A view pair's membership is one bit; an overflow pair, if it holds
   anything, is looked up in its chain. [rel] is the pair's {!rel_of_pid}
   and the ids are in range. *)
let mem_rel t ~rel ~u ~i ~time =
  if rel >= 0 then get_member t (member_bit t ~rel ~time)
  else
    count t.pair_overflow (overflow_key t ~u ~i) > 0
    &&
    match find_chain t ~u ~i with
    | Some c -> Chain.mem c (Triple.make ~u ~i ~t:time)
    | None -> false

let mem_at t ~u ~i ~time = in_range t ~u ~i ~time && mem_rel t ~rel:(rel_pair t ~u ~i) ~u ~i ~time

let instance t = t.inst

let size t = t.cardinality

let mem t (z : Triple.t) = mem_at t ~u:z.u ~i:z.i ~time:z.t

let display_key t (z : Triple.t) = (z.u * display_stride t) + z.t

let range_error t (z : Triple.t) =
  if z.u < 0 || z.u >= Instance.num_users t.inst then Some "user id outside the instance"
  else if z.i < 0 || z.i >= Instance.num_items t.inst then Some "item id outside the instance"
  else if z.t < 1 || z.t > t.horizon then Some "time step outside the horizon"
  else None

let occ_key t (z : Triple.t) slot =
  (display_key t z * (Instance.display_limit t.inst + 1)) + slot

let occ_count t key = count t.slot_occ key

(* the slot an auto-assigning add would take: the lowest unoccupied slot of
   the (u, time) display, or slot k when the display is already full (the
   add is then reported by [violations] as display + slot-conflict
   witnesses, like an over-limit add on a plain instance). Deterministic,
   and optimal under the non-increasing multipliers [Instance] enforces. *)
let next_free_slot t (z : Triple.t) =
  let k = Instance.display_limit t.inst in
  let rec scan s =
    if s > k then k else if occ_count t (occ_key t z s) = 0 then s else scan (s + 1)
  in
  scan 1

let slot_of t (z : Triple.t) =
  if not (Instance.is_slate t.inst && mem t z) then None
  else match find_chain t ~u:z.u ~i:z.i with Some c -> Chain.slot_of c z | None -> None

let slot_occupied t (z : Triple.t) ~slot = occ_count t (occ_key t z slot) > 0

let effective_q t (z : Triple.t) =
  let q = Instance.q t.inst ~u:z.u ~i:z.i ~time:z.t in
  if not (Instance.is_slate t.inst) then q
  else
    let slot = match slot_of t z with Some s -> s | None -> next_free_slot t z in
    Instance.slot_factor t.inst ~slot *. q

(* [pid] is the triple's pair id, -1 when it has no candidate pair (its q
   is then 0, as [Instance.q] reads it) *)
let add_unchecked ?slot t (z : Triple.t) ~pid =
  let q = if pid < 0 then 0.0 else Instance.pair_q t.inst ~pid ~time:z.t in
  let ck = chain_key t ~u:z.u ~i:z.i in
  let chain =
    match Hashtbl.find t.chains ck with
    | c -> c
    | exception Not_found ->
        let c = Chain.create_in t.ctx in
        Hashtbl.replace t.chains ck c;
        c
  in
  if not (Instance.is_slate t.inst) then Chain.insert chain z ~qz:q
  else begin
    let s = match slot with Some s -> s | None -> next_free_slot t z in
    ignore (bump t.slot_occ (occ_key t z s) 1);
    Chain.insert chain z ~slot:s ~qz:(Instance.slot_factor t.inst ~slot:s *. q)
  end;
  let rel = rel_of_pid t pid in
  if rel >= 0 then set_member t (member_bit t ~rel ~time:z.t) true;
  bump_display t ~u:z.u ~time:z.t 1;
  if bump_pair t ~rel ~u:z.u ~i:z.i 1 = 0 then t.item_distinct.(z.i) <- t.item_distinct.(z.i) + 1;
  t.cardinality <- t.cardinality + 1

(* a bad [slot] argument is a caller bug: [add] and [add_result] both
   raise on it *)
let check_slot ?slot t =
  match slot with
  | Some s when s < 1 || s > Instance.display_limit t.inst ->
      invalid_arg "Strategy.add: slot outside 1..display_limit"
  | Some _ when not (Instance.is_slate t.inst) ->
      invalid_arg "Strategy.add: slot given on a non-slate instance"
  | _ -> ()

(* An in-range triple's pair id is looked up once, for the duplicate test
   and then for the add itself. A range or duplicate problem is strategy
   state: [add_result] returns it, [add] raises. *)
let mem_pid t ~pid (z : Triple.t) = mem_rel t ~rel:(rel_of_pid t pid) ~u:z.u ~i:z.i ~time:z.t

let add_result ?slot t (z : Triple.t) =
  check_slot ?slot t;
  match range_error t z with
  | Some msg ->
      Error (Err.Invalid_strategy [ Err.Triple_out_of_range { u = z.u; i = z.i; t = z.t; msg } ])
  | None ->
      let pid = Instance.pair_find t.inst ~u:z.u ~i:z.i in
      if mem_pid t ~pid z then
        Error (Err.Invalid_strategy [ Err.Duplicate_triple { u = z.u; i = z.i; t = z.t } ])
      else begin
        (* unlike [add], the checked variant also guards the global quantity
           budget: exceeding it is never useful to a loader or caller that
           asked for a result, and the typed witness names the overshoot *)
        let cap = Instance.max_total_cap t.inst in
        if t.cardinality >= cap then
          Error (Err.Invalid_strategy [ Err.Quantity_budget { count = t.cardinality + 1; cap } ])
        else Ok (add_unchecked ?slot t z ~pid)
      end

let add ?slot t (z : Triple.t) =
  check_slot ?slot t;
  if Option.is_some (range_error t z) then invalid_arg "Strategy: triple out of range";
  let pid = Instance.pair_find t.inst ~u:z.u ~i:z.i in
  if mem_pid t ~pid z then invalid_arg "Strategy.add: duplicate triple";
  add_unchecked ?slot t z ~pid

let remove t (z : Triple.t) =
  if not (mem t z) then invalid_arg "Strategy.remove: absent triple";
  let ck = chain_key t ~u:z.u ~i:z.i in
  (match Hashtbl.find_opt t.chains ck with
  | None -> invalid_arg "Strategy.remove: chain entry missing"
  | Some chain ->
      (match Chain.slot_of chain z with
      | Some s -> ignore (bump t.slot_occ (occ_key t z s) (-1))
      | None -> ());
      (* removes exactly one occurrence; raises if the chain lost track of
         the triple instead of silently no-opping on a phantom removal *)
      Chain.remove chain z;
      if Chain.length chain = 0 then Hashtbl.remove t.chains ck);
  let rel = rel_pair t ~u:z.u ~i:z.i in
  if rel >= 0 then set_member t (member_bit t ~rel ~time:z.t) false;
  bump_display t ~u:z.u ~time:z.t (-1);
  if bump_pair t ~rel ~u:z.u ~i:z.i (-1) = 1 then t.item_distinct.(z.i) <- t.item_distinct.(z.i) - 1;
  t.cardinality <- t.cardinality - 1

(* One pass over the members as packed (user, time, item) keys, one
   descending sort of those ints, and the triples built in ascending
   order: the triples come into being only in their final order. *)
let to_list t =
  let ni = Instance.num_items t.inst and stride = display_stride t in
  Hashtbl.fold
    (fun _ c acc ->
      let acc = ref acc in
      for j = 0 to Chain.length c - 1 do
        acc := ((((Chain.user c * stride) + Chain.time c j) * ni) + Chain.item c j) :: !acc
      done;
      !acc)
    t.chains []
  |> List.sort (fun a b -> Int.compare b a)
  |> List.rev_map (fun key ->
         Triple.make ~u:(key / ni / stride) ~i:(key mod ni) ~t:(key / ni mod stride))

(* ----- row accessors: none of them sorts the strategy ----- *)

let remove_pair t ~u ~i =
  if pair_reps_count t ~u ~i > 0 then
    for time = 1 to t.horizon do
      if mem_at t ~u ~i ~time then remove t (Triple.make ~u ~i ~t:time)
    done

(* one pass over the chains of the item's class *)
let item_holders t i =
  let nc = Instance.num_classes t.inst and cls = Instance.class_of t.inst i in
  Hashtbl.fold
    (fun key c acc ->
      let holds = ref false in
      if key mod nc = cls then
        for j = 0 to Chain.length c - 1 do
          if Chain.item c j = i then holds := true
        done;
      if !holds then Chain.user c :: acc else acc)
    t.chains []
  |> List.sort_uniq Int.compare

let of_list inst l =
  let t = create inst in
  List.iter (add t) l;
  t

(* preserves slate slot assignments exactly — [of_list] would re-derive
   them by auto-assignment in list order, which coincides only when the
   source was itself built in order *)
let copy t =
  let fresh = create t.inst in
  List.iter (fun z -> add ?slot:(slot_of t z) fresh z) (to_list t);
  fresh

let chain_view t ~u ~cls = Hashtbl.find_opt t.chains ((u * Instance.num_classes t.inst) + cls)

let chain t ~u ~cls =
  match chain_view t ~u ~cls with None -> [] | Some c -> Chain.to_list c

let chain_of_triple t (z : Triple.t) = chain t ~u:z.u ~cls:(Instance.class_of t.inst z.i)

let chain_view_of_triple t (z : Triple.t) = find_chain t ~u:z.u ~i:z.i

let chain_size t ~u ~cls =
  match chain_view t ~u ~cls with None -> 0 | Some c -> Chain.length c

let iter_chains t f = Hashtbl.iter (fun _ c -> f c) t.chains

let iter_user_chains t ~u f =
  let nc = Instance.num_classes t.inst in
  for cls = 0 to nc - 1 do
    match Hashtbl.find_opt t.chains ((u * nc) + cls) with Some c -> f c | None -> ()
  done

let recompute_chains ?u t =
  match u with None -> iter_chains t Chain.recompute | Some u -> iter_user_chains t ~u Chain.recompute

(* A chain's first member is its least (time, item), so ordering chains by
   (user, first time, first item) is the order in which a fold over the
   sorted member list meets each chain for the first time. *)
let by_head a b =
  let c = Int.compare (Chain.user a) (Chain.user b) in
  if c <> 0 then c
  else
    let c = Int.compare (Chain.time a 0) (Chain.time b 0) in
    if c <> 0 then c else Int.compare (Chain.item a 0) (Chain.item b 0)

let chains_in_order t =
  let a = Array.make (Hashtbl.length t.chains) (Chain.create_in t.ctx) in
  let k = ref 0 in
  Hashtbl.iter
    (fun _ c ->
      a.(!k) <- c;
      incr k)
    t.chains;
  Array.stable_sort by_head a;
  a

(* the three feasibility probes below run once per heap pop in heap modes
   without their own mirrors; each is a single flat array read *)
let item_user_count t i = t.item_distinct.(i)

let item_has_user t ~i ~u = pair_reps_count t ~u ~i > 0

let can_add t (z : Triple.t) =
  (not (mem t z))
  && t.cardinality < Instance.max_total_cap t.inst
  && display_count t ~u:z.u ~time:z.t < Instance.display_limit t.inst
  && (item_has_user t ~i:z.i ~u:z.u || item_user_count t z.i < Instance.capacity t.inst z.i)

let is_valid_display_only t =
  let k = Instance.display_limit t.inst in
  Array.for_all (fun d -> d <= k) t.display
  && Hashtbl.fold (fun _ d ok -> ok && d <= k) t.display_overflow true

let has_slot_conflict t = Hashtbl.fold (fun _ n acc -> acc || n > 1) t.slot_occ false

let is_valid t =
  is_valid_display_only t
  && t.cardinality <= Instance.max_total_cap t.inst
  && (not (has_slot_conflict t))
  && begin
       let ok = ref true in
       Array.iteri (fun i n -> if n > Instance.capacity t.inst i then ok := false) t.item_distinct;
       !ok
     end

let violations t =
  let k = Instance.display_limit t.inst in
  let stride = display_stride t in
  (* deterministic witness set: every display violation by (user, time),
     then every slate slot conflict by (user, time, slot), then every
     capacity violation by item, then the quantity-budget breach, if any,
     last. Display keys are global (u * stride + time) here; out-of-view
     users sort around the view's own. *)
  let in_view = ref [] in
  for dk = Array.length t.display - 1 downto 0 do
    if t.display.(dk) > k then in_view := ((t.ulo * stride) + dk, t.display.(dk)) :: !in_view
  done;
  let overflow =
    Hashtbl.fold (fun key n acc -> if n > k then (key, n) :: acc else acc) t.display_overflow []
    |> List.sort compare
  in
  let below, above = List.partition (fun (key, _) -> key / stride < t.ulo) overflow in
  let display =
    List.map
      (fun (key, count) -> Err.Display_limit { u = key / stride; time = key mod stride; count; limit = k })
      (below @ !in_view @ above)
  in
  let conflicts =
    Hashtbl.fold (fun key n acc -> if n > 1 then key :: acc else acc) t.slot_occ []
    |> List.sort compare
    |> List.map (fun key ->
           let dk = key / (k + 1) and slot = key mod (k + 1) in
           Err.Slot_conflict { u = dk / stride; time = dk mod stride; slot })
  in
  let capacity = ref [] in
  for i = Array.length t.item_distinct - 1 downto 0 do
    let n = t.item_distinct.(i) in
    if n > Instance.capacity t.inst i then
      capacity := Err.Capacity { item = i; distinct_users = n; capacity = Instance.capacity t.inst i } :: !capacity
  done;
  let quantity =
    let cap = Instance.max_total_cap t.inst in
    if t.cardinality > cap then [ Err.Quantity_budget { count = t.cardinality; cap } ] else []
  in
  display @ conflicts @ !capacity @ quantity

let validate t =
  match violations t with [] -> Ok () | vs -> Error (Err.Invalid_strategy vs)

let repeat_histogram t =
  let hist = Array.make t.horizon 0 in
  let tally count =
    if count > 0 then begin
      let idx = min count (Array.length hist) - 1 in
      hist.(idx) <- hist.(idx) + 1
    end
  in
  Array.iter tally t.pair_reps;
  Hashtbl.iter (fun _ count -> tally count) t.pair_overflow;
  hist

(* users ascending, each user's times ascending *)
let item_recommendations_up_to t ~i ~time =
  let out = Hashtbl.create 16 in
  List.iter
    (fun u ->
      let zs = ref [] in
      for tm = min time t.horizon downto 1 do
        if mem_at t ~u ~i ~time:tm then zs := Triple.make ~u ~i ~t:tm :: !zs
      done;
      if !zs <> [] then Hashtbl.replace out u !zs)
    (item_holders t i);
  out

let pp ppf t =
  Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Triple.pp)
    (to_list t)
