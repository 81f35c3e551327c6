(** The per-time-step ("local") greedy algorithms of §5.2.

    {b SL-Greedy} (Algorithm 2) finalizes all recommendations for time step
    1, then 2, …, then T: within each round a heap keyed by marginal revenue
    w.r.t. the global partial strategy is consumed with lazy-forward
    refreshes, exactly as in G-Greedy but restricted to one time step.

    {b RL-Greedy} samples N distinct permutations of [\[T\]] (chronological
    order is not always optimal — Example 4 of the paper), runs the same
    per-step greedy in each order, and keeps the strategy of largest
    expected revenue. The paper uses N = 20.

    All entry points accept [?budget] with the anytime semantics of
    {!Greedy.run}: consulted between selections (and between RL-Greedy
    permutations), at least one unit of progress guaranteed, best-so-far
    valid strategy returned with [truncated = true] on expiry. *)

type stats = Greedy.stats = {
  marginal_evaluations : int;
  pops : int;
  selected : int;
  truncated : bool;
}

val greedy_in_order :
  ?with_saturation:bool ->
  ?allowed:(Triple.t -> bool) ->
  ?base:Strategy.t ->
  ?trace:(Greedy.trace_point -> unit) ->
  ?budget:Revmax_prelude.Budget.t ->
  Instance.t ->
  order:int list ->
  Strategy.t * stats
(** Run the per-time-step greedy over the time steps listed in [order]
    (each in [1..T], no duplicates). [allowed], [base], [trace] and
    [budget] behave as in {!Greedy.run}. The [trace] running revenue
    starts at [0.0], not at the base's revenue, and increases by fresh
    marginals, showing the "segments" of Figure 4 at round switches; with
    a non-empty [base] it is [Revenue.total s -. Revenue.total base], up to
    rounding. *)

val sl_greedy :
  ?with_saturation:bool ->
  ?allowed:(Triple.t -> bool) ->
  ?base:Strategy.t ->
  ?trace:(Greedy.trace_point -> unit) ->
  ?budget:Revmax_prelude.Budget.t ->
  Instance.t ->
  Strategy.t * stats
(** [greedy_in_order] with the chronological order [1; 2; …; T]. *)

val rl_greedy :
  ?with_saturation:bool ->
  ?permutations:int ->
  ?allowed:(Triple.t -> bool) ->
  ?base:Strategy.t ->
  ?budget:Revmax_prelude.Budget.t ->
  ?jobs:int ->
  Instance.t ->
  Revmax_prelude.Rng.t ->
  Strategy.t * stats
(** Randomized local greedy with [permutations] (default 20) distinct sampled
    orders of [\[T\]] — fewer when T! is smaller. Statistics are summed over
    all executions. The chronological order is always among the sampled ones,
    so RL-Greedy never returns less revenue than SL-Greedy on the same
    instance. The first permutation always runs to completion even under an
    expired [budget]; later permutations are budgeted and skipped once the
    shared budget is exhausted.

    The permutation sweep runs on up to [jobs] domains (default
    {!Revmax_prelude.Pool.default_jobs}): orders are sampled from [rng]
    before fan-out and the best-strategy / statistics reduction happens in
    permutation order, so without a budget the returned strategy and
    statistics are identical for every [jobs] value. With a shared [budget]
    and [jobs > 1], which late permutations get skipped is timing-dependent
    (the result is still a valid strategy, as under any wall-clock
    budget). *)
