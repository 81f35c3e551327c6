module Tl = Revmax_pqueue.Two_level_heap
module Budget = Revmax_prelude.Budget
module Metrics = Revmax_prelude.Metrics

(* bulk-added from the run's own stat refs on exit, so the hot loop carries
   no extra branches and the totals stay jobs-invariant *)
let c_runs = Metrics.counter "greedy.runs"

let c_evals = Metrics.counter "greedy.marginal_evaluations"

let c_pops = Metrics.counter "greedy.pops"

let c_selected = Metrics.counter "greedy.selected"

let c_truncated = Metrics.counter "greedy.truncated"

type stats = { marginal_evaluations : int; pops : int; selected : int; truncated : bool }

type trace_point = { z : Triple.t; size : int; revenue : float; evaluations : int }

(* The one selection loop. It plans the CSR rows of users [ulo, uhi) of
   [inst] into [s] in place: candidates are registered, and every per-run
   array sized, for those rows only, so a row-local replan costs in
   proportion to its rows rather than to the instance or to |S|. [run]
   calls it over the instance's whole user range on a fresh (or copied)
   strategy; [plan_rows] over a caller's range on a live one. *)
let select ~with_saturation ~allowed ?trace ?budget ~users inst s =
  let evals = ref 0 and pops = ref 0 and selected = ref 0 in
  let truncated = ref false in
  (* running revenue total lives in a float-array cell, not a [float ref]:
     a ref stores a fresh boxed float on every [:=], a cell stores unboxed *)
  let running_total = [| 0.0 |] in
  let horizon = Instance.horizon inst in
  let display_limit = Instance.display_limit inst in
  (* the range's own users and pairs: the slate slot map below is
     indexed by [u - ulo], the per-pair state by [pid - plo] *)
  let ulo, uhi = users in
  let plo, phi = Instance.pair_range ~users inst in
  (* Candidates are carried through the heaps as packed integer ids — the
     {e entry id} eid = (pid − plo)·horizon + t − 1 over the instance's
     CSR pair ids (pid), with plo the range's first pair — so every per-run
     array is O(range candidate pairs), never O(num_users · num_items):
     the dense (u·num_items + i) keying of the previous revision
     materialized 80 GB of per-candidate state at 10^6 users × 10^4
     items. Pair ids are strictly increasing in (user, item) lexicographic
     order, hence eids in (user, item, time) order — exactly the order of
     the old dense cids. A sub-range's eids are the whole view's shifted
     by a constant, so using eids as heap tie-breakers (and pair ranks as
     group keys) reproduces every historical tie decision bit-for-bit,
     whichever rows are planned. A heap element is then an immediate int:
     popping the root, checking feasibility and calling the oracle touch
     no heap records, no float boxes, and trigger no GC write barrier. *)
  (* [stride] indexes the slate slot map by time 0..T, as Strategy's
     display fill does; entry ids skip the unused t = 0. *)
  let stride = horizon + 1 in
  (* Slate instances fold the ordered slot into the candidate space: the
     entry id becomes eid = ((pid − plo)·horizon + t − 1)·nsl + (slot − 1)
     with nsl = display_limit, so each (pair, time) contributes one entry
     per slot and slot assignment is decided by the same heap order as
     everything else. On plain instances nsl = 1 and every formula below
     reduces to eid = (pid − plo)·horizon + t − 1. Ids stay strictly
     increasing in (pair, time, slot), so every heap tie falls as it
     always did. [mult.(slot − 1)] scales the candidate's q; the plain
     path multiplies by 1.0, which is IEEE-exact. *)
  let nsl = if Instance.is_slate inst then display_limit else 1 in
  let mult =
    match Instance.slot_multipliers inst with Some m -> m | None -> [| 1.0 |]
  in
  let estride = horizon * nsl in
  let npairs = phi - plo in
  (* per-pair user mirror, 32 bits a pair holding [u − ulo]: pops recover
     the user by one read instead of binary-searching the CSR rows; the
     item is the pair's own [Instance.pair_item] *)
  if uhi - ulo > 0x7FFF_FFFF then invalid_arg "Greedy: more than 2^31 - 1 users in the range";
  let pu = Bytes.create (4 * npairs) in
  Instance.iter_candidate_pairs ~users inst (fun ~u ~pid ->
      Bytes.set_int32_le pu (4 * (pid - plo)) (Int32.of_int (u - ulo)));
  let urel rel = Int32.to_int (Bytes.get_int32_le pu (4 * rel)) in
  (* A pair's (user, class) chain is read through the strategy's own
     per-pair pointer at every use: the key's first add, and every add
     that grows the chain's block, points every pair of the row's class
     at the chain's block. Its length is 0 until the first add, which
     selects the closed form p·q̃. *)
  let chain_len rel = Chain.length (Strategy.pair_chain s (plo + rel)) in
  (* Prices and saturation factors are read from the instance into the
     strategy's oracle cells where they are used; the run keeps no
     per-item table. A price (slot 4) is read per evaluation; the
     saturation factor (slot 5) by registration and once per refresh,
     since all of a pair's entries share its item and no call in between
     writes slot 5. *)
  let ctx = Strategy.chain_context s in
  let cells = Chain.oracle_cells ctx in
  (* result cell of the oracle and of [Tl.max_key_into]: floats enter and
     leave the per-cycle calls through preallocated cells, because without
     flambda every float argument or result of a non-inlined call is boxed
     on the minor heap — with ~10^6 cycles per run those boxes were the
     last allocation left on the steady-state path *)
  let res = [| 0.0 |] in
  (* the open-coded {!Revenue.marginal_incremental}: same arithmetic, but
     the instance facts come from the CSR row and the instance's per-item
     tables through cells (β of item [i] already in slot 5, see above),
     and the chain from the pair's pointer, so a steady-state evaluation
     performs no hashtable lookup and no allocation (these oracle calls
     are accounted under greedy.marginal_evaluations / chain.marginals) *)
  let marginal_into eid i t =
    incr evals;
    (match budget with Some b -> Budget.spend b 1 | None -> ());
    let c = Strategy.pair_chain s (plo + (eid / estride)) in
    if Chain.length c > 0 then begin
      (* q is read into the cell, not returned: a float result of
         [Instance.pair_q] is boxed at the call *)
      Instance.pair_q_into inst ~pid:(plo + (eid / estride)) ~time:t cells 3;
      cells.(3) <- mult.(eid mod nsl) *. cells.(3);
      Instance.price_into inst ~i ~time:t cells 4;
      Chain.marginal_cells ctx ~with_saturation c ~time:t ~res
    end
    else begin
      Instance.pair_q_into inst ~pid:(plo + (eid / estride)) ~time:t res 0;
      res.(0) <- mult.(eid mod nsl) *. res.(0);
      if res.(0) <= 0.0 then res.(0) <- 0.0
      else begin
        Instance.price_into inst ~i ~time:t cells 4;
        res.(0) <- cells.(4) *. res.(0)
      end
    end
  in
  (* the budget is consulted between selections only, and only after at
     least one selection, so an expired budget still yields a non-empty
     anytime prefix whenever any triple is selectable *)
  let out_of_budget () =
    match budget with
    | Some b when !selected > 0 && Budget.exhausted b ->
        truncated := true;
        true
    | _ -> false
  in
  (* global quantity budget: reaching the cap is {e completion} — the run
     found the best strategy of the allowed size — so it must not set the
     truncated flag (that means the evaluation budget cut the run short).
     Unbounded instances carry [max_int], which [Strategy.size] never
     reaches, so the plain path pays one dead compare per cycle. *)
  let cap_total = Instance.max_total_cap inst in
  let quota_full () = Strategy.size s >= cap_total in
  (* The feasibility facts [Strategy.can_add] would probe for — display
     fill per (user, time), the item's holder count, its capacity — are
     read from the strategy's and the instance's own flat arrays on every
     pop; the run keeps no copy of them. Accept still goes through
     [Strategy.add], which keeps them current. A membership re-check is
     unnecessary: the heaps hold each candidate at most once and a
     selected triple is deleted before [accept], so a popped element can
     never already be in the strategy.

     One byte per range pair holds two bits. [held]: the strategy holds
     the pair, so the item's capacity is no bar to it; set from the
     strategy's own membership on a seeded run, then by [accept].
     [stale]: the pair's (user, class) chain grew since its entries were
     last evaluated. Registration and a refresh evaluate every live entry
     of a pair against one chain, so one bit per pair answers the stale
     test as one per entry would; [accept] sets it on every pair of the
     accepted triple's (user, class) row, exactly the pairs whose chain
     grew, and a refresh clears it. *)
  let held = 1 and stale = 2 in
  let flags = Bytes.make npairs '\000' in
  let flag rel bit = Char.code (Bytes.get flags rel) land bit <> 0 in
  let set_flag rel bit =
    Bytes.set flags rel (Char.unsafe_chr (Char.code (Bytes.get flags rel) lor bit))
  in
  let clear_flag rel bit =
    Bytes.set flags rel (Char.unsafe_chr (Char.code (Bytes.get flags rel) land lnot bit))
  in
  (* slate-only byte map (empty on plain instances): [slot_taken] marks
     an occupied (user, time, slot). The fact is permanent during a run
     (the strategy only grows, slots never free), so blocked entries can
     be dropped for good, exactly like display/capacity blocks. A member
     triple's own entries never reach the heap: a seeded strategy's
     members are not registered, and [accept] retires the other slots'
     entries of the triple it selects. *)
  let slot_taken = Bytes.make (if nsl = 1 then 0 else (uhi - ulo) * stride * nsl) '\000' in
  (* a non-empty strategy already holds triples: its members seed the
     held bits and its slots the slot map *)
  if Strategy.size s > 0 then begin
    if nsl > 1 then
      for u = ulo to uhi - 1 do
        for t = 1 to horizon do
          for slot = 1 to nsl do
            if Strategy.slot_occupied s (Triple.make ~u ~i:0 ~t) ~slot then
              Bytes.set slot_taken (((((u - ulo) * stride) + t) * nsl) + slot - 1) '\001'
          done
        done
      done;
    Instance.iter_candidate_pairs ~users inst (fun ~u ~pid ->
        if Strategy.item_has_user s ~i:(Instance.pair_item inst pid) ~u then
          set_flag (pid - plo) held)
  end;
  (* feasibility of a popped candidate: candidates always carry their own
     range pair, so the holder probe is one bit *)
  let feasible rel u i t slot =
    Strategy.display_count s ~u ~time:t < display_limit
    && (flag rel held || Strategy.item_user_count s i < Instance.capacity inst i)
    && (nsl = 1 || Bytes.get slot_taken (((((u - ulo) * stride) + t) * nsl) + slot - 1) = '\000')
  in
  (* Groups are keyed by the paper's (user, item) pair — the view pair rank
     [pid − plo] — so a refresh event touches one pair's horizon-bounded
     lower heap, exactly §5.1's granularity. A selection staleness-marks
     every candidate of one (user, class), i.e. all pairs of the user's
     same-class items, but the lazy loop only refreshes the stale pairs
     that actually surface as the global root before being re-staled; with
     the coarser user-sized groups every event would recompute the whole
     stale set at once, several times more oracle calls for the same
     trajectory. *)
  let h = Tl.create ~groups:npairs ~width:estride in
  (* the accepted marginal arrives through [res.(0)], not a float argument:
     without flambda a float parameter is boxed at the call boundary, and
     [accept] runs once per selected triple in the steady-state loop *)
  let accept rel u i t slot =
    (* the popped entry is a range pair's, in range and not a member (see
       above), so the add needs no lookup and no check *)
    Strategy.add_unchecked s ~u ~i ~time:t ~pid:(plo + rel) ~slot;
    set_flag rel held;
    (* the chain grew: every pair of the row pointing at it is stale. The
       row is the run of [u] in [pu] around [rel]. *)
    let c = Strategy.pair_chain s (plo + rel) in
    let ur = u - ulo in
    let r = ref rel in
    while !r > 0 && urel (!r - 1) = ur do
      decr r
    done;
    while !r < npairs && urel !r = ur do
      if Strategy.pair_chain s (plo + !r) == c then set_flag !r stale;
      incr r
    done;
    if nsl > 1 then begin
      let dk = ((u - ulo) * stride) + t in
      Bytes.set slot_taken ((dk * nsl) + slot - 1) '\001';
      (* a triple occupies one slot: its other slots' entries can never
         be feasible again, so they leave the pair's group now rather
         than be re-evaluated with it and popped one by one *)
      let e0 = ((rel * horizon) + t - 1) * nsl in
      for k = 0 to nsl - 1 do
        if k <> slot - 1 then Tl.remove h (e0 + k)
      done
    end;
    incr selected;
    (* a selection is a unit of work even when its key came from the
       closed-form path below and cost no oracle call *)
    (match budget with Some b -> Budget.spend b 1 | None -> ());
    running_total.(0) <- running_total.(0) +. res.(0);
    match trace with
    | Some f ->
        f
          {
            z = Triple.make ~u ~i ~t;
            size = Strategy.size s;
            revenue = running_total.(0);
            evaluations = !evals;
          }
    | None -> ()
  in
  (* key of a fresh candidate, read from and left in [res.(0)] (its q̃ on
     entry): on a chain known empty the marginal reduces to p·q̃
     (Algorithm 1 line 8), which avoids an oracle call per candidate at
     startup *)
  let build_key eid i t rel =
    if chain_len rel = 0 then res.(0) <- cells.(4) *. res.(0) else marginal_into eid i t
  in
  (* Registration allocates nothing: q and keys travel through cells, a
     triple is built only for a caller's [allowed] filter, and membership
     is probed only on pairs a seeded strategy already holds. *)
  let qcell = [| 0.0 |] in
  Instance.iter_candidate_pairs ~users inst (fun ~u ~pid ->
      let rel = pid - plo in
      let i = Instance.pair_item inst pid in
      let holds = flag rel held in
      for t = 1 to horizon do
        Instance.pair_q_into inst ~pid ~time:t qcell 0;
        if
          qcell.(0) > 0.0
          && (match allowed with None -> true | Some f -> f (Triple.make ~u ~i ~t))
          && not (holds && Strategy.mem_at s ~u ~i ~time:t)
        then begin
          (* the price of (i, t), for [build_key]'s closed form (an
             evaluation reloads the same value), and the item's β; both
             after a caller's [allowed], which may use the cells *)
          Instance.price_into inst ~i ~time:t cells 4;
          Instance.saturation_into inst i cells 5;
          for slot = 1 to nsl do
            res.(0) <- mult.(slot - 1) *. qcell.(0);
            if res.(0) > 0.0 then begin
              let eid = (((rel * horizon) + t - 1) * nsl) + slot - 1 in
              build_key eid i t rel;
              Tl.insert h res eid
            end
          done
        end
      done);
  (* Recompute one entry's key; the fresh key is left in [res.(0)] for
     [Tl.refresh_pair_into] to store. Hoisted so the refresh calls share
     one closure instead of allocating one per event; the refreshed
     pair's item is set in [refreshed] before the refresh. *)
  let refreshed = ref 0 in
  let refresh_entry eid' = marginal_into eid' !refreshed (((eid' / nsl) mod horizon) + 1) in
  let rec loop () =
    if (not (quota_full ())) && (not (out_of_budget ())) && not (Tl.is_empty h) then begin
      let eid = Tl.max_elt h in
      let t = ((eid / nsl) mod horizon) + 1 in
      let rel = eid / estride in
      let slot = (eid mod nsl) + 1 in
      let i = Instance.pair_item inst (plo + rel) in
      let u = ulo + urel rel in
      incr pops;
      if not (feasible rel u i t slot) then begin
        (* both display fill and capacity blocks are permanent during a run
           (the strategy only grows), so the entry is dropped for good —
           each blocked candidate costs at most one pop *)
        Tl.drop_max h;
        loop ()
      end
      else begin
        if flag rel stale then begin
          (* stale root: re-evaluate its (user, item) group in place — all
             of the pair's live entries — through the cell ABI
             (allocation-free), and look again. Trusting the stale key as
             an upper bound (classic CELF) would be unsound: a marginal can
             rise as its chain grows (DESIGN.md §5a, §5b). *)
          clear_flag rel stale;
          refreshed := i;
          Instance.saturation_into inst i cells 5;
          Tl.refresh_pair_into h rel res ~f:refresh_entry;
          loop ()
        end
        else begin
          (* fresh root: its key is its current marginal, and no stored
             key orders above it *)
          Tl.max_key_into h res;
          if res.(0) > 0.0 then begin
            Tl.drop_max h;
            accept rel u i t slot;
            loop ()
          end
        end
      end
    end
  in
  loop ();
  Metrics.incr c_runs;
  Metrics.incr c_evals ~by:!evals;
  Metrics.incr c_pops ~by:!pops;
  Metrics.incr c_selected ~by:!selected;
  if !truncated then Metrics.incr c_truncated;
  { marginal_evaluations = !evals; pops = !pops; selected = !selected; truncated = !truncated }

let run ?(with_saturation = true) ?allowed ?base ?trace ?budget inst =
  Metrics.span "greedy.run" @@ fun () ->
  let s = match base with Some b -> Strategy.copy b | None -> Strategy.create inst in
  let stats =
    select ~with_saturation ~allowed ?trace ?budget ~users:(Instance.user_range inst) inst s
  in
  (s, stats)

let plan_rows ?allowed ?budget s ~users =
  Metrics.span "greedy.plan_rows" @@ fun () ->
  let inst = Strategy.instance s in
  let lo, hi = Instance.user_range inst and ulo, uhi = users in
  if ulo < lo || uhi > hi || ulo > uhi then
    invalid_arg "Greedy.plan_rows: user range outside the instance";
  select ~with_saturation:true ~allowed ?budget ~users inst s
