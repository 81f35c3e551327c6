(** The Global Greedy algorithm (G-Greedy, Algorithm 1 of §5.1): a
    hill-climber over the whole ground set [U × I × \[T\]] that repeatedly
    adds the feasible triple of largest positive marginal revenue, with the
    paper's two implementation-level optimizations — the two-level heap data
    structure and lazy-forward evaluation.

    {b Lazy forward.} Every (user, item) pair carries a stale bit: set
    when its (user, class) chain grows after the pair's keys were
    computed, cleared when they are computed again. The loop pops the
    largest key. A stale root has its whole (user, item) group
    re-evaluated and goes back into the heap; only a root whose key is
    current is selected, or ends the run when it is non-positive. The
    paper grounds this in the submodularity of [Rev] (Theorem 2), under
    which a stale key bounds its fresh marginal from above. That does not
    hold here (DESIGN.md §5a): a marginal can rise as the strategy grows,
    so a stale key may under-estimate, and a lazy run may select other
    triples than an eager one. A group re-evaluation recomputes every
    live entry of the pair: they all share the root's chain, so they are
    stale together. The test suite's reference G-Greedy implements this
    rule directly, and this loop must match it selection for selection;
    its eager mode refreshes every stale key after each selection.

    Options used by the experiments:
    - [~with_saturation:false] is the {b GlobalNo} baseline of §6: marginal
      revenue is computed as if [β_i = 1] everywhere (the output is then
      evaluated under the true saturation factors by the caller);
    - [~allowed] and [~base] support the §6.3 gradual-price-availability
      setting through {!Rolling}: selection is restricted to allowed
      triples while the committed [base] strategy contributes to chains and
      constraints;
    - [~budget] makes the run {e anytime}: the budget is consulted between
      selections (after at least one), and on expiry the best-so-far prefix
      is returned with [truncated = true] in the statistics. Every prefix
      is a valid strategy: each accepted triple passed the feasibility
      checks against the strategy as it stood, and the strategy only
      grows.

    {b Footprint.} Beyond the strategy it plans into, a run's own state
    is allocated before its first selection. Per candidate pair of the
    planned range it is at most [2.9 + 1.25·T·k'] words, where [k'] is
    the display limit on slate instances and 1 otherwise:
    - a 32-bit user mirror and a flag byte (held, stale): 0.625 words;
    - the two-level heap's group of [T·k'] entries: 8 bytes per key and
      2 per entry offset, [1.25·T·k'] words, plus 2.25 words of upper
      level (a float key and a 32-bit group id and position) and size.
    Nothing the instance or the strategy already holds is copied: an
    evaluation reads the pair's (user, class) chain through the
    strategy's own pointer ({!Strategy.pair_chain}) and the candidate's
    price and saturation factor from the instance through cells, a pop
    reads the pair's item from the instance ({!Instance.pair_item}), and
    the feasibility test reads display fill, holder counts and
    capacities from the strategy and the instance, so nothing grows with
    the catalogue: a replan of one user's row costs the same words on
    200 items as on 20,000. On slates only, [(T + 1)·k'] bytes of slot
    map per user of the range come on top. On the wide, shallow pack of
    the benchmark (T = 4, ten pairs per user) that is 7.9 words per
    pair, and on the T = 15 dense family 21.6; the test suite holds it
    to at most 9 and 23 words there, and CI's bench-scale cell to 9 at
    T = 4. A pair's group must fit a 16-bit offset ([T·k' ≤ 65,536]),
    the range at most 2^31 − 1 pairs and users, or the run raises
    [Invalid_argument]. *)

type stats = {
  marginal_evaluations : int;  (** marginal-revenue evaluations *)
  pops : int;  (** heap roots examined *)
  selected : int;  (** triples added to the strategy *)
  truncated : bool;  (** the run stopped early because a budget expired *)
}

type trace_point = {
  z : Triple.t;  (** the triple just selected *)
  size : int;  (** strategy size after the selection *)
  revenue : float;  (** running sum of fresh marginal revenues *)
  evaluations : int;  (** cumulative marginal evaluations so far *)
}

val run :
  ?with_saturation:bool ->
  ?allowed:(Triple.t -> bool) ->
  ?base:Strategy.t ->
  ?trace:(trace_point -> unit) ->
  ?budget:Revmax_prelude.Budget.t ->
  Instance.t ->
  Strategy.t * stats
(** [run inst] returns a valid strategy and execution statistics.

    [trace] is invoked after every selection with the strategy size, the
    running sum of (fresh) marginal revenues — the series plotted in
    Figure 4 — and the cumulative marginal-evaluation count. The sum
    starts at [0.0], so with [with_saturation = true] it equals
    [Revenue.total s -. Revenue.total base] of the growing strategy [s]
    (just [Revenue.total s] without a base), up to rounding.

    When [budget] is given, evaluation charges accumulate into it (so one
    budget can be shared across several runs) and the run stops as soon as
    the budget is exhausted after a selection; the budgeted run's selection
    sequence is a prefix of the unbudgeted one's.

    With [base], the run plans on a {!Strategy.copy} of it: exactly
    {!plan_rows} over the instance's whole user range on that copy.
    [base]'s instance view must hold [inst]'s rows, since the run reads
    each pair's chain through the strategy's per-pair pointer
    ({!Strategy.pair_chain}). *)

val plan_rows :
  ?allowed:(Triple.t -> bool) ->
  ?budget:Revmax_prelude.Budget.t ->
  Strategy.t ->
  users:int * int ->
  stats
(** [plan_rows s ~users:(lo, hi)] runs the default greedy in place on [s]
    over the candidate rows of users [lo .. hi - 1] of [s]'s instance —
    the same selection loop as {!run}, with no copy. A triple's marginal
    depends only on its own user's same-class chain (§5.1), so a
    dynamic event needs only the affected users' rows planned again.

    Cost is in proportion to the rows: candidates are registered, and the
    per-run state sized, for the range's pairs only; display fill and
    holder counts are read from [s]'s own counts, not from its
    members. [allowed] is consulted once per candidate, before the first
    selection. Capacities and the display limit are checked against the
    whole of [s], so the result stays valid when [s] was.

    {b Tie order.} Entry ids are taken relative to the range's first
    pair, so they keep the (user, item, time) order of the whole
    instance's ids and every heap tie falls as in {!run}.

    {b Precondition for bit-identity.} [plan_rows s] selects exactly the
    triples [run ~allowed ~base:s] would (restricted to the range's
    users), with the same statistics, when the chains of the range's
    users are canonical — cached exactly as {!Strategy.copy} rebuilds
    them. A chain is canonical after it was built in ascending
    (time, item) order or {!Chain.recompute}d, and stops being so when
    triples are inserted out of order, as any greedy run does. Callers
    that replan a live strategy call {!Strategy.recompute_chains} on the
    users planned since (or, after a whole-instance plan, on every
    chain). *)
