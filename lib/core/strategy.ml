module Err = Revmax_prelude.Err

type t = {
  inst : Instance.t;
  triples : (Triple.t, unit) Hashtbl.t;
  (* (u * num_classes + cls) -> array-backed chain with cached aggregates.
     Deliberately a hashtable, not a flat array: [iter_chains] visits in
     table order and [Revenue.total] folds a float sum over that visit, so
     the container must preserve the historical iteration order exactly. *)
  chains : (int, Chain.t) Hashtbl.t;
  (* The feasibility bookkeeping lives in flat int arrays sized by the
     instance dimensions — these are probed on [add]/[can_add], which sit
     on the accept path of every greedy selection, and an array read
     replaces a hashtable probe (plus, for the per-item user sets, a
     second-level probe). *)
  display : int array; (* (u * (horizon+1)) + time -> #items displayed *)
  (* Per-pair repetition counts, keyed by the instance's CSR pair ids so
     the array is O(view candidate pairs), not O(num_items · num_users) —
     a dense (i, u) grid would be 80 GB at 10^6 users × 10^4 items. Pairs
     outside the view's pair-id range (a base strategy's out-of-view
     triples) or without a candidate pair at all spill into the overflow
     table, which stays empty on every planner path. *)
  pair_reps : int array; (* (pid - plo) -> #triples of this candidate (user, item) pair *)
  pair_overflow : (int, int) Hashtbl.t; (* (i * num_users) + u for out-of-range pairs *)
  plo : int;
  phi : int;
  item_distinct : int array; (* item -> #distinct users holding it *)
  (* slate bookkeeping, touched only when the instance carries position
     multipliers: the 1-based slot each member occupies, and per
     ((u * (horizon+1) + time) * (k+1) + slot) occupancy counts (sparse —
     O(members), not O(users · horizon · k)). On plain instances both
     tables stay empty and no [add]/[remove] path reads them. *)
  slot_of_tbl : (Triple.t, int) Hashtbl.t;
  slot_occ : (int, int) Hashtbl.t;
  mutable cardinality : int;
}

let create inst =
  let plo, phi = Instance.pair_range inst in
  {
    inst;
    triples = Hashtbl.create 256;
    chains = Hashtbl.create 256;
    display = Array.make (Instance.num_users inst * (Instance.horizon inst + 1)) 0;
    pair_reps = Array.make (phi - plo) 0;
    pair_overflow = Hashtbl.create 16;
    plo;
    phi;
    item_distinct = Array.make (Instance.num_items inst) 0;
    slot_of_tbl = Hashtbl.create 16;
    slot_occ = Hashtbl.create 16;
    cardinality = 0;
  }

(* add [delta] to the pair's repetition count, returning the previous
   count (the 0 -> 1 and 1 -> 0 edges drive [item_distinct]) *)
let bump_pair t ~u ~i delta =
  let pid = Instance.pair_find t.inst ~u ~i in
  if pid >= t.plo && pid < t.phi then begin
    let k = pid - t.plo in
    let prev = t.pair_reps.(k) in
    t.pair_reps.(k) <- prev + delta;
    prev
  end
  else begin
    let key = (i * Instance.num_users t.inst) + u in
    let prev = match Hashtbl.find_opt t.pair_overflow key with Some n -> n | None -> 0 in
    let next = prev + delta in
    if next = 0 then Hashtbl.remove t.pair_overflow key
    else Hashtbl.replace t.pair_overflow key next;
    prev
  end

let pair_reps_count t ~u ~i =
  let pid = Instance.pair_find t.inst ~u ~i in
  if pid >= t.plo && pid < t.phi then t.pair_reps.(pid - t.plo)
  else
    match Hashtbl.find_opt t.pair_overflow ((i * Instance.num_users t.inst) + u) with
    | Some n -> n
    | None -> 0

let instance t = t.inst

let size t = t.cardinality

let mem t z = Hashtbl.mem t.triples z

let chain_key t (z : Triple.t) = (z.u * Instance.num_classes t.inst) + Instance.class_of t.inst z.i

let display_key t (z : Triple.t) = (z.u * (Instance.horizon t.inst + 1)) + z.t

let range_error t (z : Triple.t) =
  if z.u < 0 || z.u >= Instance.num_users t.inst then Some "user id outside the instance"
  else if z.i < 0 || z.i >= Instance.num_items t.inst then Some "item id outside the instance"
  else if z.t < 1 || z.t > Instance.horizon t.inst then Some "time step outside the horizon"
  else None

let occ_key t (z : Triple.t) slot =
  (display_key t z * (Instance.display_limit t.inst + 1)) + slot

let occ_count t key = match Hashtbl.find_opt t.slot_occ key with Some n -> n | None -> 0

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

let slot_of t z = Hashtbl.find_opt t.slot_of_tbl z

let slot_occupied t (z : Triple.t) ~slot = occ_count t (occ_key t z slot) > 0

let effective_q t (z : Triple.t) =
  let q = Instance.q t.inst ~u:z.u ~i:z.i ~time:z.t in
  if not (Instance.is_slate t.inst) then q
  else
    let slot = match slot_of t z with Some s -> s | None -> next_free_slot t z in
    Instance.slot_factor t.inst ~slot *. q

let add_unchecked ?slot t (z : Triple.t) =
  Hashtbl.replace t.triples z ();
  let slate = Instance.is_slate t.inst in
  let qz =
    if not slate then None
    else begin
      let s = match slot with Some s -> s | None -> next_free_slot t z in
      Hashtbl.replace t.slot_of_tbl z s;
      let key = occ_key t z s in
      Hashtbl.replace t.slot_occ key (occ_count t key + 1);
      Some (Instance.slot_factor t.inst ~slot:s *. Instance.q t.inst ~u:z.u ~i:z.i ~time:z.t)
    end
  in
  let ck = chain_key t z in
  let chain =
    match Hashtbl.find_opt t.chains ck with
    | Some c -> c
    | None ->
        let c = Chain.create t.inst in
        Hashtbl.replace t.chains ck c;
        c
  in
  Chain.insert ?qz chain z;
  let dk = display_key t z in
  t.display.(dk) <- t.display.(dk) + 1;
  if bump_pair t ~u:z.u ~i:z.i 1 = 0 then t.item_distinct.(z.i) <- t.item_distinct.(z.i) + 1;
  t.cardinality <- t.cardinality + 1

(* the malformed-triple checks shared by [add] and [add_result]: a bad
   [slot] argument is a caller bug (raises either way); a range or
   duplicate problem is strategy state and comes back as a result *)
let precheck ?slot t (z : Triple.t) =
  (match slot with
  | Some s when s < 1 || s > Instance.display_limit t.inst ->
      invalid_arg "Strategy.add: slot outside 1..display_limit"
  | Some _ when not (Instance.is_slate t.inst) ->
      invalid_arg "Strategy.add: slot given on a non-slate instance"
  | _ -> ());
  match range_error t z with
  | Some msg ->
      Error (Err.Invalid_strategy [ Err.Triple_out_of_range { u = z.u; i = z.i; t = z.t; msg } ])
  | None ->
      if Hashtbl.mem t.triples z then
        Error (Err.Invalid_strategy [ Err.Duplicate_triple { u = z.u; i = z.i; t = z.t } ])
      else Ok ()

let add_result ?slot t (z : Triple.t) =
  match precheck ?slot t z with
  | Error _ as e -> e
  | Ok () ->
      (* unlike [add], the checked variant also guards the global quantity
         budget: exceeding it is never useful to a loader or caller that
         asked for a result, and the typed witness names the overshoot *)
      let cap = Instance.max_total_cap t.inst in
      if t.cardinality >= cap then
        Error (Err.Invalid_strategy [ Err.Quantity_budget { count = t.cardinality + 1; cap } ])
      else Ok (add_unchecked ?slot t z)

let add ?slot t z =
  match precheck ?slot t z with
  | Ok () -> add_unchecked ?slot t z
  | Error (Err.Invalid_strategy (Err.Duplicate_triple _ :: _)) ->
      invalid_arg "Strategy.add: duplicate triple"
  | Error (Err.Invalid_strategy (Err.Triple_out_of_range _ :: _)) ->
      invalid_arg "Strategy: triple out of range"
  | Error e -> invalid_arg (Err.message e)

let remove t z =
  if not (Hashtbl.mem t.triples z) then invalid_arg "Strategy.remove: absent triple";
  Hashtbl.remove t.triples z;
  (match Hashtbl.find_opt t.slot_of_tbl z with
  | None -> ()
  | Some s ->
      Hashtbl.remove t.slot_of_tbl z;
      let key = occ_key t z s in
      let n = occ_count t key - 1 in
      if n = 0 then Hashtbl.remove t.slot_occ key else Hashtbl.replace t.slot_occ key n);
  let ck = chain_key t z in
  (match Hashtbl.find_opt t.chains ck with
  | None -> invalid_arg "Strategy.remove: chain entry missing"
  | Some chain ->
      (* removes exactly one occurrence; raises if the chain lost track of
         the triple instead of silently no-opping on a phantom removal *)
      Chain.remove chain z;
      if Chain.length chain = 0 then Hashtbl.remove t.chains ck);
  let dk = display_key t z in
  t.display.(dk) <- t.display.(dk) - 1;
  if bump_pair t ~u:z.u ~i:z.i (-1) = 1 then t.item_distinct.(z.i) <- t.item_distinct.(z.i) - 1;
  t.cardinality <- t.cardinality - 1

let to_list t =
  Hashtbl.fold (fun z () acc -> z :: acc) t.triples [] |> List.sort Triple.compare

(* ----- row accessors: none of them sorts the strategy ----- *)

let remove_pair t ~u ~i =
  if pair_reps_count t ~u ~i > 0 then
    for time = 1 to Instance.horizon t.inst do
      let z = Triple.make ~u ~i ~t:time in
      if Hashtbl.mem t.triples z then remove t z
    done

let item_holders t i =
  Hashtbl.fold (fun (z : Triple.t) () acc -> if z.i = i then z.u :: acc else acc) t.triples []
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

let chain_view_of_triple t (z : Triple.t) =
  chain_view t ~u:z.u ~cls:(Instance.class_of t.inst z.i)

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

(* the three feasibility probes below run once per heap pop in heap modes
   without their own mirrors; each is a single flat array read *)
let display_count t ~u ~time = t.display.((u * (Instance.horizon t.inst + 1)) + time)

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
  let stride = Instance.horizon t.inst + 1 in
  (* deterministic witness set — ascending index order matches the sorted
     order the hashtable-backed implementation produced: every display
     violation by (user, time), then every slate slot conflict by
     (user, time, slot), then every capacity violation by item, then the
     quantity-budget breach, if any, last *)
  let display = ref [] in
  for dk = Array.length t.display - 1 downto 0 do
    let count = t.display.(dk) in
    if count > k then
      display := Err.Display_limit { u = dk / stride; time = dk mod stride; count; limit = k } :: !display
  done;
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
  !display @ conflicts @ !capacity @ quantity

let validate t =
  match violations t with [] -> Ok () | vs -> Error (Err.Invalid_strategy vs)

let repeat_histogram t =
  let hist = Array.make (Instance.horizon t.inst) 0 in
  let tally count =
    if count > 0 then begin
      let idx = min count (Array.length hist) - 1 in
      hist.(idx) <- hist.(idx) + 1
    end
  in
  Array.iter tally t.pair_reps;
  Hashtbl.iter (fun _ count -> tally count) t.pair_overflow;
  hist

let item_recommendations_up_to t ~i ~time =
  let out = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (z : Triple.t) () ->
      if z.i = i && z.t <= time then begin
        let prev = try Hashtbl.find out z.u with Not_found -> [] in
        Hashtbl.replace out z.u (z :: prev)
      end)
    t.triples;
  Hashtbl.iter
    (fun u l -> Hashtbl.replace out u (List.sort (fun (a : Triple.t) b -> compare a.t b.t) l))
    out;
  out

let pp ppf t =
  Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Triple.pp)
    (to_list t)
