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

(* [chain_revenue] over each chain's [Chain.to_list], summed over the
   chains in [Strategy.iter_chains], without building a triple
   or a list: each chain is folded from its members' items, times and
   slots, with q (q̃ on slates), price and β read from the instance, by
   the same float operations in the same order. The memory and
   competition folds share one pass; they update separate accumulators.
   The floats travel through cells: the running total outlives each
   call of the visitor's callback, and a float ref that a closure
   captures is boxed at every update, as is a float returned by a
   non-inlined call. *)
let total ?(with_saturation = true) s =
  let inst = Strategy.instance s and ctx = Strategy.chain_context s in
  let mult = match Instance.slot_multipliers inst with Some m -> m | None -> [||] in
  (* 0: Rev(S); 1: the chain's revenue; 2: memory; 3: competition;
     4: price; 5: β *)
  let a = Array.make 6 0.0 in
  (* the chain's q per member, reused from chain to chain *)
  let qbuf = ref (Array.make 8 0.0) in
  Strategy.iter_chains s (fun c ->
      let u = Chain.user c and len = Chain.length c in
      if Array.length !qbuf < len then qbuf := Array.make (2 * len) 0.0;
      let q = !qbuf in
      for j = 0 to len - 1 do
        let pid = Instance.pair_find inst ~u ~i:(Chain.item ctx c j) in
        if pid < 0 then q.(j) <- 0.0 else Instance.pair_q_into inst ~pid ~time:(Chain.time ctx c j) q j;
        if Array.length mult > 0 then q.(j) <- mult.(Chain.slot ctx c j - 1) *. q.(j)
      done;
      a.(1) <- 0.0;
      for j = 0 to len - 1 do
        let i = Chain.item ctx c j and t = Chain.time ctx c j in
        Instance.price_into inst ~i ~time:t a 4;
        let prob =
          if q.(j) <= 0.0 then 0.0
          else begin
            a.(2) <- 0.0;
            a.(3) <- 1.0;
            for l = 0 to len - 1 do
              let tl = Chain.time ctx c l in
              if tl < t then a.(2) <- a.(2) +. (1.0 /. float_of_int (t - tl));
              if tl < t || (tl = t && Chain.item ctx c l <> i) then a.(3) <- a.(3) *. (1.0 -. q.(l))
            done;
            Instance.saturation_into inst i a 5;
            let sat = if with_saturation && a.(2) <> 0.0 then a.(5) ** a.(2) else 1.0 in
            q.(j) *. sat *. a.(3)
          end
        in
        a.(1) <- a.(1) +. (a.(4) *. prob)
      done;
      a.(0) <- a.(0) +. a.(1));
  a.(0)

let dynamic_probability_in ?(with_saturation = true) s z =
  if not (Strategy.mem s z) then 0.0
  else
    match Strategy.chain_view_of_triple s z with
    | None -> 0.0 (* unreachable: membership implies a chain entry *)
    | Some c -> (
        match Chain.prob (Strategy.chain_context s) ~with_saturation c z with
        | Some p -> p
        | None -> 0.0)

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

(* q̃ (plain [Instance.q] on plain instances), price and β go into the
   chain's oracle cells, as [Greedy] stores them, and the marginal comes
   back through the cells' slot 0 *)
let marginal_incremental ?(with_saturation = true) s (z : Triple.t) =
  if Strategy.mem s z then 0.0
  else begin
    Metrics.incr c_marginal_incremental;
    let inst = Strategy.instance s in
    let q = Strategy.effective_q s z in
    match Strategy.chain_view_of_triple s z with
    | Some c ->
        Metrics.incr c_marginal_cached;
        let ctx = Strategy.chain_context s in
        let a = Chain.oracle_cells ctx in
        a.(3) <- q;
        a.(4) <- Instance.price inst ~i:z.i ~time:z.t;
        a.(5) <- Instance.saturation inst z.i;
        Chain.marginal_cells ctx ~with_saturation c ~time:z.t ~res:a;
        a.(0)
    | None ->
        (* empty chain: the marginal reduces to p·q (no memory, no
           competition), exactly Algorithm 1's initialization value *)
        Metrics.incr c_marginal_empty;
        if q <= 0.0 then 0.0 else Instance.price inst ~i:z.i ~time:z.t *. q
  end
