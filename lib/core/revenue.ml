module Metrics = Revmax_prelude.Metrics

(* oracle-call accounting: naive vs incremental entry points, and whether
   the incremental path hit a cached chain view or the empty-chain closed
   form. Atomic increments, so the totals are jobs-invariant. *)
let c_marginal_naive = Metrics.counter "revenue.marginal_naive"

let c_marginal_incremental = Metrics.counter "revenue.marginal_incremental"

let c_marginal_cached = Metrics.counter "revenue.marginal_cached"

let c_marginal_empty = Metrics.counter "revenue.marginal_empty"

let memory ~chain ~time =
  List.fold_left
    (fun acc (z : Triple.t) ->
      if z.t < time then acc +. (1.0 /. float_of_int (time - z.t)) else acc)
    0.0 chain

let dynamic_probability ?(with_saturation = true) ?q_of inst ~chain (z : Triple.t) =
  (* [q_of] overrides the primitive probability of every chain member —
     slate strategies pass their slot-scaled effective q̃; the default is
     the raw instance lookup, byte-identical to the historical path *)
  let qv (z' : Triple.t) =
    match q_of with Some f -> f z' | None -> Instance.q inst ~u:z'.u ~i:z'.i ~time:z'.t
  in
  let q0 = qv z in
  if q0 <= 0.0 then 0.0
  else begin
    let sat =
      (* one shared closed form with Chain's cached aggregates — the naive
         and incremental evaluators cannot drift on the m = 0 guard *)
      if with_saturation then
        Chain.saturation_factor (Instance.saturation inst z.i) (memory ~chain ~time:z.t)
      else 1.0
    in
    let comp =
      List.fold_left
        (fun acc (z' : Triple.t) ->
          if z'.t < z.t || (z'.t = z.t && z'.i <> z.i) then acc *. (1.0 -. qv z') else acc)
        1.0 chain
    in
    q0 *. sat *. comp
  end

let chain_revenue ?with_saturation ?q_of inst chain =
  List.fold_left
    (fun acc (z : Triple.t) ->
      acc
      +. Instance.price inst ~i:z.i ~time:z.t
         *. dynamic_probability ?with_saturation ?q_of inst ~chain z)
    0.0 chain

(* a strategy's own q view: the slot-scaled effective probability on slate
   instances, nothing (the raw-q default) otherwise — so the plain path
   stays byte-identical *)
let strategy_q_of s =
  if Instance.is_slate (Strategy.instance s) then Some (fun z -> Strategy.effective_q s z)
  else None

let total ?with_saturation s =
  let inst = Strategy.instance s in
  let q_of = strategy_q_of s in
  (* one walk over the chains in the order a fold over the sorted member
     list first meets them, summing each chain's naive revenue; the same
     float sum, in the same order, as that fold *)
  Array.fold_left
    (fun acc c -> acc +. chain_revenue ?with_saturation ?q_of inst (Chain.to_list c))
    0.0 (Strategy.chains_in_order s)

let dynamic_probability_in ?(with_saturation = true) s z =
  if not (Strategy.mem s z) then 0.0
  else
    match Strategy.chain_view_of_triple s z with
    | None -> 0.0 (* unreachable: membership implies a chain entry *)
    | Some c -> ( match Chain.prob ~with_saturation c z with Some p -> p | None -> 0.0)

let marginal ?with_saturation s z =
  if Strategy.mem s z then 0.0
  else begin
    Metrics.incr c_marginal_naive;
    let inst = Strategy.instance s in
    let q_of = strategy_q_of s in
    let chain = Strategy.chain_of_triple s z in
    chain_revenue ?with_saturation ?q_of inst (Triple.chain_insert chain z)
    -. chain_revenue ?with_saturation ?q_of inst chain
  end

let marginal_incremental ?(with_saturation = true) s (z : Triple.t) =
  if Strategy.mem s z then 0.0
  else begin
    Metrics.incr c_marginal_incremental;
    let inst = Strategy.instance s in
    let slate = Instance.is_slate inst in
    match Strategy.chain_view_of_triple s z with
    | Some c ->
        Metrics.incr c_marginal_cached;
        if not slate then Chain.marginal ~with_saturation c z
        else
          (* candidate scored at its would-be slot's effective q̃; chain
             members already carry theirs in the cached aggregates *)
          Chain.marginal_flat ~with_saturation c ~time:z.t ~qz:(Strategy.effective_q s z)
            ~price:(Instance.price inst ~i:z.i ~time:z.t)
            ~beta:(Instance.saturation inst z.i)
    | None ->
        (* empty chain: the marginal reduces to p·q (no memory, no
           competition), exactly Algorithm 1's initialization value *)
        Metrics.incr c_marginal_empty;
        let q =
          if slate then Strategy.effective_q s z else Instance.q inst ~u:z.u ~i:z.i ~time:z.t
        in
        if q <= 0.0 then 0.0 else Instance.price inst ~i:z.i ~time:z.t *. q
  end

let total_incremental ?(with_saturation = true) s =
  let acc = ref 0.0 in
  Strategy.iter_chains s (fun c -> acc := !acc +. Chain.revenue ~with_saturation c);
  !acc
