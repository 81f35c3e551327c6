module Bh = Revmax_pqueue.Binary_heap
module Rng = Revmax_prelude.Rng
module Budget = Revmax_prelude.Budget
module Metrics = Revmax_prelude.Metrics

(* bulk-added from the run's stat refs on exit, as in Greedy *)
let c_runs = Metrics.counter "local_greedy.runs"

let c_evals = Metrics.counter "local_greedy.marginal_evaluations"

let c_pops = Metrics.counter "local_greedy.pops"

let c_selected = Metrics.counter "local_greedy.selected"

let c_permutations = Metrics.counter "local_greedy.permutations"

type stats = Greedy.stats = {
  marginal_evaluations : int;
  pops : int;
  selected : int;
  truncated : bool;
}

type elt = { z : Triple.t; pid : int; mutable flag : int }

let greedy_in_order ?(with_saturation = true) ?(allowed = fun _ -> true) ?base ?trace ?budget
    inst ~order =
  let horizon = Instance.horizon inst in
  let seen_time = Array.make (horizon + 1) false in
  List.iter
    (fun tm ->
      if tm < 1 || tm > horizon then invalid_arg "Local_greedy: time step out of range";
      if seen_time.(tm) then invalid_arg "Local_greedy: duplicate time step in order";
      seen_time.(tm) <- true)
    order;
  let s = match base with Some b -> Strategy.copy b | None -> Strategy.create inst in
  let evals = ref 0 and pops = ref 0 and selected = ref 0 in
  let truncated = ref false in
  let running_total = ref 0.0 in
  (* a candidate's (user, class) chain, read through its own pair *)
  let chain_size_of pid = Chain.length (Strategy.pair_chain s pid) in
  let marginal (z : Triple.t) =
    incr evals;
    (match budget with Some b -> Budget.spend b 1 | None -> ());
    Revenue.marginal_incremental ~with_saturation s z
  in
  (* consulted between selections, after at least one, as in Greedy.run *)
  let out_of_budget () =
    match budget with
    | Some b when !selected > 0 && Budget.exhausted b ->
        truncated := true;
        true
    | _ -> false
  in
  let round tm =
    let h = Bh.create () in
    (* Algorithm 2 line 7: populate with marginal revenue given the current
       global S (which holds the recommendations of earlier rounds) *)
    Instance.iter_candidate_pairs ~users:(0, Instance.num_users inst) inst (fun ~u ~pid ->
        if Instance.pair_q inst ~pid ~time:tm > 0.0 then begin
          let z = Triple.make ~u ~i:(Instance.pair_item inst pid) ~t:tm in
          if allowed z && not (Strategy.mem s z) then
            Bh.insert h ~key:(marginal z) { z; pid; flag = chain_size_of pid }
        end);
    let rec consume () =
      if not (out_of_budget ()) then
        match Bh.delete_max h with
        | None -> ()
        | Some (e, key) ->
            incr pops;
            if not (Strategy.can_add s e.z) then consume ()
            else begin
              let cur = chain_size_of e.pid in
              if e.flag < cur then begin
                (* lazy forward within the round *)
                e.flag <- cur;
                Bh.insert h ~key:(marginal e.z) e;
                consume ()
              end
              else if key <= 0.0 then ()
              else begin
                Strategy.add s e.z;
                incr selected;
                (match budget with Some b -> Budget.spend b 1 | None -> ());
                running_total := !running_total +. key;
                (match trace with
                | Some f ->
                    f
                      {
                        Greedy.z = e.z;
                        size = Strategy.size s;
                        revenue = !running_total;
                        evaluations = !evals;
                      }
                | None -> ());
                consume ()
              end
            end
    in
    consume ()
  in
  List.iter (fun tm -> if not (out_of_budget ()) then round tm) order;
  Metrics.incr c_runs;
  Metrics.incr c_evals ~by:!evals;
  Metrics.incr c_pops ~by:!pops;
  Metrics.incr c_selected ~by:!selected;
  (s, { marginal_evaluations = !evals; pops = !pops; selected = !selected; truncated = !truncated })

let sl_greedy ?with_saturation ?allowed ?base ?trace ?budget inst =
  let order = List.init (Instance.horizon inst) (fun idx -> idx + 1) in
  greedy_in_order ?with_saturation ?allowed ?base ?trace ?budget inst ~order

let factorial_capped n cap =
  let rec go acc i = if i > n || acc >= cap then min acc cap else go (acc * i) (i + 1) in
  go 1 2

let rl_greedy ?with_saturation ?(permutations = 20) ?allowed ?base ?budget ?jobs inst rng =
  if permutations < 1 then invalid_arg "Local_greedy.rl_greedy: need at least one permutation";
  let horizon = Instance.horizon inst in
  let n = min permutations (factorial_capped horizon permutations) in
  (* always include the chronological order, then distinct random ones; the
     order list is drawn sequentially from [rng] before any fan-out, so it —
     and everything downstream — is independent of [jobs] *)
  let chrono = List.init horizon (fun idx -> idx + 1) in
  let seen = Hashtbl.create n in
  Hashtbl.replace seen chrono ();
  let orders = ref [ chrono ] in
  while List.length !orders < n do
    let p = Array.to_list (Array.map (fun idx -> idx + 1) (Rng.permutation rng horizon)) in
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.replace seen p ();
      orders := p :: !orders
    end
  done;
  (* Each permutation's greedy run reads only the (immutable) instance and
     its own strategy, so the sweep fans out across domains. [None] marks a
     run skipped by an exhausted shared budget; the skip check happens when
     the task starts, so at jobs = 1 this replays the sequential semantics
     exactly (with jobs > 1 and a live budget, which permutations are
     skipped is timing-dependent — like any wall-clock budget). *)
  let run_one idx order =
    (* the first permutation always runs in full so an expired budget still
       yields a usable strategy; later ones are skipped once exhausted *)
    let skip = match budget with Some b -> idx > 0 && Budget.exhausted b | None -> false in
    if skip then None
    else begin
      let inner_budget = if idx = 0 then None else budget in
      let s, st =
        greedy_in_order ?with_saturation ?allowed ?base ?budget:inner_budget inst ~order
      in
      (* the first permutation runs unbudgeted; charge its work afterwards
         so later skip decisions account for it *)
      (match (inner_budget, budget) with
      | None, Some b -> Budget.spend b (st.marginal_evaluations + st.selected)
      | _ -> ());
      (* permutations are compared by the objective every caller reads,
         Rev(S): one O(Σ L²) walk over the chains per permutation, small
         beside the greedy run that built them *)
      Some (s, st, Revenue.total s)
    end
  in
  let order_array = Array.of_list !orders in
  Metrics.incr c_permutations ~by:(Array.length order_array);
  let results =
    Revmax_prelude.Pool.parallel_init ?jobs (Array.length order_array) ~f:(fun idx ->
        run_one idx order_array.(idx))
  in
  (* deterministic in-order reduction: stats sum in permutation order and the
     first maximum wins ties, as in the sequential loop *)
  let best = ref None in
  let total_stats = ref { marginal_evaluations = 0; pops = 0; selected = 0; truncated = false } in
  Array.iter
    (function
      | None -> total_stats := { !total_stats with truncated = true }
      | Some (s, st, v) -> (
          total_stats :=
            {
              marginal_evaluations = !total_stats.marginal_evaluations + st.marginal_evaluations;
              pops = !total_stats.pops + st.pops;
              selected = !total_stats.selected + st.selected;
              truncated = !total_stats.truncated || st.truncated;
            };
          match !best with
          | Some (_, bv) when bv >= v -> ()
          | _ -> best := Some (s, v)))
    results;
  match !best with
  | Some (s, _) -> (s, !total_stats)
  | None -> (Strategy.create inst, !total_stats)
