module Pool = Revmax_prelude.Pool
module Budget = Revmax_prelude.Budget
module Metrics = Revmax_prelude.Metrics
module Err = Revmax_prelude.Err

(* bulk-added on exit from the run's own accumulators, as in Greedy: the
   hot paths carry no extra branches and every total is jobs-invariant
   (shard results are reduced in shard order) *)
let c_runs = Metrics.counter "shard_greedy.runs"

let c_released = Metrics.counter "shard_greedy.released_pairs"

let c_replanned = Metrics.counter "shard_greedy.replanned"

let c_trimmed = Metrics.counter "shard_greedy.quantity_trimmed"

(* count/sum/min/max of reconciliation rounds per run — the round
   "histogram" summary exposed through the Metrics registry *)
let t_rounds = Metrics.timer "shard_greedy.reconciliation_rounds"

let shard_counter idx what = Metrics.counter (Printf.sprintf "shard_greedy.shard%d.%s" idx what)

let env_shards () =
  match Sys.getenv_opt "REVMAX_SHARDS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1)

let default = ref None (* None = not yet read from the environment *)

let default_shards () =
  match !default with
  | Some n -> n
  | None ->
      let n = env_shards () in
      default := Some n;
      n

let set_default_shards n = default := Some (max 1 n)

type stats = {
  shards : int;
  per_shard_selected : int array;
  marginal_evaluations : int;
  pops : int;
  selected : int;
  reconciliation_rounds : int;
  released_pairs : int;
  replanned : int;
  truncated : bool;
}

(* The revenue the strategy loses when user [u] gives up item [i] entirely
   (every triple of the pair, at all times): the delta of the one affected
   (user, class) chain, scored by the reference chain evaluator. Removing
   the pair also changes the memory/competition of the chain's surviving
   triples, which is exactly what re-scoring both variants of the chain
   accounts for. *)
let removal_loss inst s ~u ~i =
  let cls = Instance.class_of inst i in
  let chain = Strategy.chain s ~u ~cls in
  let keep = List.filter (fun (z : Triple.t) -> z.i <> i) chain in
  let q_of = if Instance.is_slate inst then Some (Strategy.effective_q s) else None in
  Revenue.chain_revenue ?q_of inst chain -. Revenue.chain_revenue ?q_of inst keep

(* The quantity-trim ranking key: the revenue lost when one triple leaves
   the strategy — the delta of its own (user, class) chain. *)
let triple_removal_loss inst s (z : Triple.t) =
  let chain = Strategy.chain_of_triple s z in
  let keep = List.filter (fun z' -> not (Triple.equal z' z)) chain in
  let q_of = if Instance.is_slate inst then Some (Strategy.effective_q s) else None in
  Revenue.chain_revenue ?q_of inst chain -. Revenue.chain_revenue ?q_of inst keep

let solve ?shards ?jobs ?budget inst =
  let shards = match shards with Some n -> max 1 n | None -> default_shards () in
  Metrics.span "shard_greedy.solve" @@ fun () ->
  let views = Instance.shard ~shards inst in
  (* each shard plans against its own deterministic slice of the budget;
     the charges flow back into the caller's budget afterwards *)
  let parts = Option.map (fun b -> Budget.split b shards) budget in
  let results =
    Pool.parallel_init ?jobs shards ~f:(fun idx ->
        Greedy.run ?budget:(Option.map (fun a -> a.(idx)) parts) views.(idx))
  in
  (match (budget, parts) with Some b, Some a -> Budget.absorb b a | _ -> ());
  (* deterministic merge in shard order; shards partition the users, so no
     triple can collide and no display slot can overflow. On slate
     instances each triple keeps the slot its shard assigned it — shard
     displays are whole (user, time) displays, so slots cannot collide
     either. *)
  let s = Strategy.create inst in
  Array.iter
    (fun (sh, _) ->
      List.iter (fun z -> Strategy.add ?slot:(Strategy.slot_of sh z) s z) (Strategy.to_list sh))
    results;
  let evals = ref 0 and pops = ref 0 and truncated = ref false in
  Array.iter
    (fun (_, (st : Greedy.stats)) ->
      evals := !evals + st.marginal_evaluations;
      pops := !pops + st.pops;
      truncated := !truncated || st.truncated)
    results;
  let rounds = ref 0 and released_pairs = ref 0 and replanned = ref 0 in
  (* Capacity reconciliation. The water-filled budgets overlap, so items
     may be over-subscribed. Each round releases, per over-subscribed
     item, the holders of globally lowest removal loss (ties to the lower
     user id) until the item is back at q_i, then the released users
     re-plan locally — one constrained greedy pass over the merged
     strategy, whose can_add checks the true global capacities. A re-plan
     can never over-subscribe, so the fixed point is reached after at
     most one release round; the loop form keeps the invariant obvious
     and guards the proof obligation at run time. *)
  let merged = ref s in
  let rec reconcile () =
    let over =
      List.filter_map
        (function Err.Capacity { item; _ } -> Some item | _ -> None)
        (Strategy.violations !merged)
    in
    if over <> [] then begin
      incr rounds;
      let losers = Hashtbl.create 16 in
      List.iter
        (fun i ->
          let cur = !merged in
          let holders =
            List.sort_uniq compare
              (List.filter_map
                 (fun (z : Triple.t) -> if z.i = i then Some z.u else None)
                 (Strategy.to_list cur))
          in
          let excess = List.length holders - Instance.capacity inst i in
          let ranked =
            List.sort compare
              (List.map (fun u -> (removal_loss inst cur ~u ~i, u)) holders)
          in
          List.iteri
            (fun rank (_, u) ->
              if rank < excess then begin
                List.iter
                  (fun (z : Triple.t) -> if z.i = i && z.u = u then Strategy.remove cur z)
                  (Strategy.to_list cur);
                Hashtbl.replace losers u ();
                incr released_pairs
              end)
            ranked)
        over;
      (* losers re-plan against the reconciled global strategy: marginals,
         display slots and the true capacities are all checked w.r.t. the
         merged state, so the pass cannot reintroduce a violation *)
      let s', (st : Greedy.stats) =
        Greedy.run ~allowed:(fun z -> Hashtbl.mem losers z.u) ~base:!merged ?budget inst
      in
      merged := s';
      evals := !evals + st.marginal_evaluations;
      pops := !pops + st.pops;
      replanned := !replanned + st.selected;
      truncated := !truncated || st.truncated;
      reconcile ()
    end
  in
  reconcile ();
  (* Quantity reconciliation, after capacities are settled. Every shard
     gets an optimistic [min cap shard-universe] budget, so the merged
     size may exceed the global cap. Release the triple of globally
     lowest removal loss (ties to the smaller triple) one at a time —
     each removal changes its chain's aggregates, so the ranking is
     recomputed per step — until the strategy is back under the cap.
     Removals cannot violate any other constraint, so the result stays
     valid. *)
  let trimmed = ref 0 in
  (match Instance.max_total inst with
  | None -> ()
  | Some cap ->
      while Strategy.size !merged > cap do
        let cur = !merged in
        let best =
          List.fold_left
            (fun acc z ->
              let l = triple_removal_loss inst cur z in
              match acc with Some (l0, _) when l0 <= l -> acc | _ -> Some (l, z))
            None (Strategy.to_list cur)
        in
        match best with
        | Some (_, z) ->
            Strategy.remove cur z;
            incr trimmed
        | None -> assert false (* size > cap ≥ 0 implies a non-empty strategy *)
      done);
  let per_shard_selected = Array.map (fun (_, (st : Greedy.stats)) -> st.selected) results in
  Metrics.incr c_runs;
  Metrics.incr c_trimmed ~by:!trimmed;
  Metrics.incr c_released ~by:!released_pairs;
  Metrics.incr c_replanned ~by:!replanned;
  Metrics.observe t_rounds (float_of_int !rounds);
  Array.iteri
    (fun idx (st : Greedy.stats) ->
      Metrics.incr (shard_counter idx "selected") ~by:st.selected;
      Metrics.incr (shard_counter idx "marginal_evaluations") ~by:st.marginal_evaluations)
    (Array.map snd results);
  ( !merged,
    {
      shards;
      per_shard_selected;
      marginal_evaluations = !evals;
      pops = !pops;
      selected = Strategy.size !merged;
      reconciliation_rounds = !rounds;
      released_pairs = !released_pairs;
      replanned = !replanned;
      truncated = !truncated;
    } )
