module Err = Revmax_prelude.Err

type t = {
  inst : Instance.t;
  ctx : Chain.ctx; (* oracle cells, 1/Δt table and member width, shared by every chain *)
  horizon : int;
  mult : float array; (* slot multipliers on slates, [||] otherwise *)
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
     (u, i, time) is a member, for the view's pairs, so a pair's
     repetition count is the number of its set bits; an overflow pair's
     members are found in its chain *)
  member : Bytes.t;
  pair_overflow : (int, int) Hashtbl.t; (* (i * num_users) + u -> #triples, for pairs outside the view *)
  (* (pid - plo) -> the chain of the pair's (user, class): every view pair
     of one row and one class points at the same chain, or at [empty]
     until the first add. An add that grows a chain's block points the
     whole row's class at the new block ([point]). The chain stays in
     place when removals empty it, and the next add reuses it. *)
  chains : Chain.t array;
  empty : Chain.t; (* the one sentinel of this strategy: it has no room,
                      so an insert into it returns a new block *)
  (* (u * num_classes + cls) -> chain, for (user, class) keys with no view
     pair of that class: out-of-view users, or a non-candidate triple
     whose class has no candidate pair in the user's row *)
  chain_overflow : (int, Chain.t) Hashtbl.t;
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
  let ctx = Chain.context inst in
  let empty = Chain.create () in
  {
    inst;
    ctx;
    horizon;
    mult = Option.value (Instance.slot_multipliers inst) ~default:[||];
    ulo;
    uhi;
    display = Array.make ((uhi - ulo) * (horizon + 1)) 0;
    display_overflow = Hashtbl.create 16;
    plo;
    phi;
    member = Bytes.make ((((phi - plo) * horizon) + 7) / 8) '\000';
    pair_overflow = Hashtbl.create 16;
    chains = Array.make (phi - plo) empty;
    empty;
    chain_overflow = Hashtbl.create 16;
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

let rel_pair t ~u ~i =
  if u < 0 || u >= Instance.num_users t.inst then -1
  else rel_of_pid t (Instance.pair_find t.inst ~u ~i)

let overflow_key t ~u ~i = (i * Instance.num_users t.inst) + u

let member_bit t ~rel ~time = (rel * t.horizon) + time - 1

let get_member t k = Char.code (Bytes.get t.member (k lsr 3)) land (1 lsl (k land 7)) <> 0

let set_member t k on =
  let b = Char.code (Bytes.get t.member (k lsr 3)) in
  let m = 1 lsl (k land 7) in
  Bytes.set t.member (k lsr 3) (Char.unsafe_chr (if on then b lor m else b land lnot m))

(* a view pair's repetition count: the number of its set membership bits *)
let pair_reps t rel =
  let n = ref 0 in
  for time = 1 to t.horizon do
    if get_member t (member_bit t ~rel ~time) then incr n
  done;
  !n

(* on the accept path: a loop, since a local recursive scan would
   allocate its closure on every add *)
let pair_held t rel =
  let k = ref (member_bit t ~rel ~time:1) and stop = member_bit t ~rel ~time:t.horizon in
  while !k <= stop && not (get_member t !k) do
    incr k
  done;
  !k <= stop

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

let pair_class t pid = Instance.class_of t.inst (Instance.pair_item t.inst pid)

(* the first pair of [u]'s row whose item is of class [cls], relative to
   the view, or -1 when [u] is outside the view or the row has none:
   O(row) *)
let class_rel t ~u ~cls =
  if u < t.ulo || u >= t.uhi then -1
  else begin
    let hi = Instance.row_offset t.inst (u + 1) in
    let pid = ref (Instance.row_offset t.inst u) in
    while !pid < hi && pair_class t !pid <> cls do
      incr pid
    done;
    if !pid < hi then !pid - t.plo else -1
  end

let overflow_chain_key t ~u ~cls = (u * Instance.num_classes t.inst) + cls

(* The chain of a (user, class) key: [t.empty] or an emptied chain when
   the key holds nothing. [rel] is a pair of that key in the view, or -1
   when the caller has none at hand. *)
let chain_at t ~rel ~u ~cls =
  let rel = if rel >= 0 then rel else class_rel t ~u ~cls in
  if rel >= 0 then t.chains.(rel)
  else
    match Hashtbl.find_opt t.chain_overflow (overflow_chain_key t ~u ~cls) with
    | Some c -> c
    | None -> t.empty

(* the chain a triple (u, i) with view pair [rel] (-1 for none) joins *)
let chain_of_pair t ~rel ~u ~i = chain_at t ~rel ~u ~cls:(Instance.class_of t.inst i)

(* Make [c] the (u, cls) key's chain: store it into every pair of [u]'s
   row with that class, O(row), or into the overflow table when the row
   has none. An add calls it whenever the insert returned a new block:
   on the key's first add (the sentinel has no room) and each time the
   chain's block doubles. *)
let point t ~rel ~u ~cls c =
  if rel >= 0 || class_rel t ~u ~cls >= 0 then
    for pid = Instance.row_offset t.inst u to Instance.row_offset t.inst (u + 1) - 1 do
      if pair_class t pid = cls then t.chains.(pid - t.plo) <- c
    done
  else Hashtbl.replace t.chain_overflow (overflow_chain_key t ~u ~cls) c

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
    && Chain.mem t.ctx (chain_of_pair t ~rel ~u ~i) (Triple.make ~u ~i ~t:time)

let mem_at t ~u ~i ~time = in_range t ~u ~i ~time && mem_rel t ~rel:(rel_pair t ~u ~i) ~u ~i ~time

let instance t = t.inst

let size t = t.cardinality

let mem t (z : Triple.t) = mem_at t ~u:z.u ~i:z.i ~time:z.t

let range_error t (z : Triple.t) =
  if z.u < 0 || z.u >= Instance.num_users t.inst then Some "user id outside the instance"
  else if z.i < 0 || z.i >= Instance.num_items t.inst then Some "item id outside the instance"
  else if z.t < 1 || z.t > t.horizon then Some "time step outside the horizon"
  else None

let occ_key t ~u ~time slot =
  ((((u * display_stride t) + time) * (Instance.display_limit t.inst + 1)) + slot)

let occ_count t key = count t.slot_occ key

(* the slot an auto-assigning add would take: the lowest unoccupied slot of
   the (u, time) display, or slot k when the display is already full (the
   add is then reported by [violations] as display + slot-conflict
   witnesses, like an over-limit add on a plain instance). Deterministic,
   and optimal under the non-increasing multipliers [Instance] enforces. *)
let free_slot t ~u ~time =
  let k = Instance.display_limit t.inst in
  let rec scan s =
    if s > k then k else if occ_count t (occ_key t ~u ~time s) = 0 then s else scan (s + 1)
  in
  scan 1

let next_free_slot t (z : Triple.t) = free_slot t ~u:z.u ~time:z.t

let slot_of t (z : Triple.t) =
  if not (Instance.is_slate t.inst && mem t z) then None
  else Chain.slot_of t.ctx (chain_of_pair t ~rel:(rel_pair t ~u:z.u ~i:z.i) ~u:z.u ~i:z.i) z

let slot_occupied t (z : Triple.t) ~slot = occ_count t (occ_key t ~u:z.u ~time:z.t slot) > 0

let effective_q t (z : Triple.t) =
  let q = Instance.q t.inst ~u:z.u ~i:z.i ~time:z.t in
  if not (Instance.is_slate t.inst) then q
  else
    let slot = match slot_of t z with Some s -> s | None -> next_free_slot t z in
    Instance.slot_factor t.inst ~slot *. q

(* q (q̃ on slates) travels to the chain through the context's cell, and
   the chain's block comes back: a new one whenever the insert grew it,
   which [point] then stores wherever the old one was *)
let add_unchecked t ~u ~i ~time ~pid ~slot =
  let cells = Chain.oracle_cells t.ctx in
  if pid < 0 then cells.(3) <- 0.0 else Instance.pair_q_into t.inst ~pid ~time cells 3;
  let rel = rel_of_pid t pid in
  let slot =
    if Array.length t.mult = 0 then 0
    else begin
      let s = if slot > 0 then slot else free_slot t ~u ~time in
      ignore (bump t.slot_occ (occ_key t ~u ~time s) 1);
      cells.(3) <- t.mult.(s - 1) *. cells.(3);
      s
    end
  in
  let c = if rel >= 0 then t.chains.(rel) else chain_of_pair t ~rel ~u ~i in
  let c' = Chain.insert_cells t.ctx c ~u ~i ~time ~slot in
  if c' != c then point t ~rel ~u ~cls:(Instance.class_of t.inst i) c';
  (* the pair's 0 -> 1 edge counts a new holder of the item *)
  let first =
    if rel >= 0 then begin
      let first = not (pair_held t rel) in
      set_member t (member_bit t ~rel ~time) true;
      first
    end
    else bump t.pair_overflow (overflow_key t ~u ~i) 1 = 0
  in
  bump_display t ~u ~time 1;
  if first then t.item_distinct.(i) <- t.item_distinct.(i) + 1;
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
        else Ok (add_unchecked t ~u:z.u ~i:z.i ~time:z.t ~pid ~slot:(Option.value slot ~default:0))
      end

let add ?slot t (z : Triple.t) =
  check_slot ?slot t;
  if Option.is_some (range_error t z) then invalid_arg "Strategy: triple out of range";
  let pid = Instance.pair_find t.inst ~u:z.u ~i:z.i in
  if mem_pid t ~pid z then invalid_arg "Strategy.add: duplicate triple";
  add_unchecked t ~u:z.u ~i:z.i ~time:z.t ~pid ~slot:(Option.value slot ~default:0)

let remove t (z : Triple.t) =
  if not (mem t z) then invalid_arg "Strategy.remove: absent triple";
  let rel = rel_pair t ~u:z.u ~i:z.i in
  let chain = chain_of_pair t ~rel ~u:z.u ~i:z.i in
  if Chain.length chain = 0 then invalid_arg "Strategy.remove: chain entry missing";
  (match Chain.slot_of t.ctx chain z with
  | Some s -> ignore (bump t.slot_occ (occ_key t ~u:z.u ~time:z.t s) (-1))
  | None -> ());
  (* removes exactly one occurrence; raises if the chain lost track of the
     triple instead of silently no-opping on a phantom removal. An emptied
     chain stays where it is, for the key's next add. *)
  Chain.remove t.ctx chain z;
  (* the pair's 1 -> 0 edge loses a holder of the item *)
  let last =
    if rel >= 0 then begin
      set_member t (member_bit t ~rel ~time:z.t) false;
      not (pair_held t rel)
    end
    else bump t.pair_overflow (overflow_key t ~u:z.u ~i:z.i) (-1) = 1
  in
  bump_display t ~u:z.u ~time:z.t (-1);
  if last then t.item_distinct.(z.i) <- t.item_distinct.(z.i) - 1;
  t.cardinality <- t.cardinality - 1

(* ----- chain iteration ----- *)

(* [f] on a view pair's chain when the pair is the first of its class in
   its row and the chain is not empty: [mark.(cls) = u] once row [u]'s
   class [cls] was visited, so a row costs O(row) with no pairwise
   comparison of chains *)
let visit_first t ~mark f ~u ~pid =
  let cls = pair_class t pid in
  if mark.(cls) <> u then begin
    mark.(cls) <- u;
    let c = t.chains.(pid - t.plo) in
    if Chain.length c > 0 then f c
  end

let class_mark t = Array.make (max 1 (Instance.num_classes t.inst)) (-1)

(* Every non-empty chain once, in pair order: the view's rows, each
   chain at its row's first pair of that class, then the overflow
   chains. Only [to_list] and [recompute_chains] walk it; their results
   do not depend on the visit order. The visits are full applications:
   a partial application of [visit_first] would allocate a closure on
   every pair it is called on. *)
let iter_pair_chains t f =
  let mark = class_mark t in
  Instance.iter_candidate_pairs t.inst (fun ~u ~pid -> visit_first t ~mark f ~u ~pid);
  Hashtbl.iter (fun _ c -> if Chain.length c > 0 then f c) t.chain_overflow

let iter_user_chains t ~u f =
  if u >= t.ulo && u < t.uhi then
    let mark = class_mark t in
    Instance.iter_candidate_pairs ~users:(u, u + 1) t.inst (fun ~u ~pid -> visit_first t ~mark f ~u ~pid);
  let nc = Instance.num_classes t.inst in
  Hashtbl.iter (fun key c -> if key / nc = u && Chain.length c > 0 then f c) t.chain_overflow

(* One pass over the members as packed (user, time, item) keys, one
   descending sort of those ints, and the triples built in ascending
   order: the triples come into being only in their final order. *)
let to_list t =
  let ni = Instance.num_items t.inst and stride = display_stride t in
  let acc = ref [] in
  iter_pair_chains t (fun c ->
      for j = 0 to Chain.length c - 1 do
        acc := ((((Chain.user c * stride) + Chain.time t.ctx c j) * ni) + Chain.item t.ctx c j) :: !acc
      done);
  List.sort (fun a b -> Int.compare b a) !acc
  |> List.rev_map (fun key ->
         Triple.make ~u:(key / ni / stride) ~i:(key mod ni) ~t:(key / ni mod stride))

(* ----- row accessors: none of them sorts the strategy ----- *)

let item_has_user t ~i ~u =
  let rel = rel_pair t ~u ~i in
  if rel >= 0 then pair_held t rel else count t.pair_overflow (overflow_key t ~u ~i) > 0

let remove_pair t ~u ~i =
  if item_has_user t ~i ~u then
    for time = 1 to t.horizon do
      if mem_at t ~u ~i ~time then remove t (Triple.make ~u ~i ~t:time)
    done

(* one pair lookup per view user, then the overflow pairs *)
let item_holders t i =
  let nu = Instance.num_users t.inst in
  let acc =
    ref (Hashtbl.fold (fun key _ acc -> if key / nu = i then (key mod nu) :: acc else acc) t.pair_overflow [])
  in
  for u = t.uhi - 1 downto t.ulo do
    let rel = rel_pair t ~u ~i in
    if rel >= 0 && pair_held t rel then acc := u :: !acc
  done;
  List.sort_uniq Int.compare !acc

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

let pair_chain t pid = t.chains.(pid - t.plo)

let nonempty c = if Chain.length c > 0 then Some c else None

let chain_view t ~u ~cls = nonempty (chain_at t ~rel:(-1) ~u ~cls)

let chain t ~u ~cls =
  match chain_view t ~u ~cls with None -> [] | Some c -> Chain.to_list t.ctx c

let chain_of_triple t (z : Triple.t) = chain t ~u:z.u ~cls:(Instance.class_of t.inst z.i)

let chain_view_of_triple t (z : Triple.t) =
  nonempty (chain_of_pair t ~rel:(rel_pair t ~u:z.u ~i:z.i) ~u:z.u ~i:z.i)

let chain_size t ~u ~cls = Chain.length (chain_at t ~rel:(-1) ~u ~cls)

let chain_context t = t.ctx

let recompute_chains ?u t =
  let f = Chain.recompute t.ctx in
  match u with None -> iter_pair_chains t f | Some u -> iter_user_chains t ~u f

(* A chain's first member is its least (time, item), so ordering chains by
   (user, first time, first item) is the order in which a fold over the
   sorted member list meets each chain for the first time. Two chains of
   one user never share a head (an item has one class), so the order is
   total. *)
let by_head ctx a b =
  let c = Int.compare (Chain.user a) (Chain.user b) in
  if c <> 0 then c
  else
    let c = Int.compare (Chain.time ctx a 0) (Chain.time ctx b 0) in
    if c <> 0 then c else Int.compare (Chain.item ctx a 0) (Chain.item ctx b 0)

(* insertion sort of [buf.(0 .. n-1)] by [by_head]: a user holds few
   chains *)
let sort_heads ctx buf n =
  for k = 1 to n - 1 do
    let c = buf.(k) in
    let j = ref (k - 1) in
    while !j >= 0 && by_head ctx buf.(!j) c > 0 do
      buf.(!j + 1) <- buf.(!j);
      decr j
    done;
    buf.(!j + 1) <- c
  done

(* The view's rows in user order, each user's chains (found at the first
   pair of each class, as in [iter_pair_chains], plus the user's overflow
   chains) sorted by head in a buffer reused from user to user. The
   overflow chains, sorted once (the table is empty on planner paths),
   are merged in by user, so users without a view row take their place
   too. *)
let iter_chains t f =
  let over =
    Hashtbl.fold (fun _ c acc -> if Chain.length c > 0 then c :: acc else acc) t.chain_overflow []
    |> List.sort (by_head t.ctx) |> ref
  in
  let mark = class_mark t in
  let buf = ref (Array.make 8 t.empty) and n = ref 0 and cur = ref (-1) in
  let push c =
    if !n = Array.length !buf then begin
      let b = Array.make (2 * !n) t.empty in
      Array.blit !buf 0 b 0 !n;
      buf := b
    end;
    !buf.(!n) <- c;
    incr n
  in
  (* the overflow chains of users below [u] go out at once; [u]'s own
     join the buffer *)
  let rec take u =
    match !over with
    | c :: rest when Chain.user c <= u ->
        over := rest;
        if Chain.user c < u then f c else push c;
        take u
    | _ -> ()
  in
  let flush () =
    take !cur;
    sort_heads t.ctx !buf !n;
    for k = 0 to !n - 1 do
      f !buf.(k)
    done;
    n := 0
  in
  Instance.iter_candidate_pairs t.inst (fun ~u ~pid ->
      if u <> !cur then begin
        if !cur >= 0 then flush ();
        cur := u
      end;
      visit_first t ~mark push ~u ~pid);
  if !cur >= 0 then flush ();
  take max_int

let item_user_count t i = t.item_distinct.(i)

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
  for rel = 0 to t.phi - t.plo - 1 do
    tally (pair_reps t rel)
  done;
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
