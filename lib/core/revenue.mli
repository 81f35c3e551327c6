(** The revenue model of §3.1: memory (Equation 1), dynamic adoption
    probability (Definition 1), the expected-revenue objective
    (Definition 2), and marginal revenue (Definition 3).

    Because a triple's dynamic adoption probability depends only on the
    same-user same-class triples at earlier-or-equal times, [Rev] decomposes
    over (user, class) chains; all functions below work on such chains.
    [marginal_incremental] reads the chain's cached aggregates through
    {!Chain.marginal_cells}, the kernel G-Greedy calls directly, and
    answers in O(m) for a chain of m ≤ kT triples; the naive [marginal]
    re-scores both chains in O(m²) and is kept as the reference oracle.

    All functions take [?with_saturation] (default [true]); [false] computes
    the β = 1 variant used by the GlobalNo baseline, which plans as though
    saturation did not exist. *)

val memory : chain:Triple.t list -> time:int -> float
(** [M_S(u,i,t)] (Equation 1): [Σ 1/(t−τ)] over chain triples with [τ < t].
    Note the memory is class-level — every same-class triple contributes,
    whichever item it recommends. *)

val dynamic_probability :
  ?with_saturation:bool ->
  ?q_of:(Triple.t -> float) ->
  Instance.t ->
  chain:Triple.t list ->
  Triple.t ->
  float
(** [dynamic_probability inst ~chain z] is [qS(z)] of Definition 1 where
    [chain] is the (user, class) chain of [z] in [S], {e including} [z]
    itself. The saturation exponent uses the chain's earlier triples; the
    competition products use primitive probabilities of earlier triples and
    of same-time triples recommending a different item. [q_of] overrides
    the primitive probability of every triple (default: [Instance.q]) —
    slate callers pass the strategy's slot-scaled effective q̃. *)

val chain_revenue :
  ?with_saturation:bool -> ?q_of:(Triple.t -> float) -> Instance.t -> Triple.t list -> float
(** Expected revenue contributed by one chain:
    [Σ_{z ∈ chain} p(z.i, z.t) · qS(z)]. *)

val total : ?with_saturation:bool -> Strategy.t -> float
(** [Rev(S)] (Definition 2). On slate instances the strategy's slot
    assignments determine each member's effective probability, so [total]
    is automatically slate-aware. Chains are summed in
    {!Strategy.iter_chains}, each by the naive fold of
    {!chain_revenue} over its members, with q (the slot-scaled q̃ on
    slates), price and β read from the instance rather than from the
    chain's cached aggregates: the result depends only on the members and
    their slots, and is bit for bit that fold's over each chain's
    {!Chain.to_list}. O(Σ L²) over the chains' lengths L; it allocates
    no triple and no list, only a few cells and a buffer as long as the
    longest chain, plus the visitor's: 179 words on a 3,000-user plan of
    35,409 selections. *)

val dynamic_probability_in : ?with_saturation:bool -> Strategy.t -> Triple.t -> float
(** [qS(u,i,t)] for a triple of the strategy; 0 when [(u,i,t) ∉ S]
    (Definition 1's convention). Served from the chain's cached aggregates
    in O(log L). *)

val marginal : ?with_saturation:bool -> Strategy.t -> Triple.t -> float
(** [RevS(z) = Rev(S ∪ {z}) − Rev(S)] (Definition 3): the gain from [z]
    itself minus the loss it inflicts on later same-class triples of the
    same user. 0 if [z ∈ S]. Does not check validity.

    This is the naive reference oracle: both chains are re-scored from
    scratch in O(L²). The algorithms use {!marginal_incremental}; property
    tests pin the two against each other. *)

val marginal_incremental : ?with_saturation:bool -> Strategy.t -> Triple.t -> float
(** Same value as {!marginal} (up to floating-point rounding, ≤ 1e-9
    relative) computed in O(L) from the chain's cached aggregates: the
    candidate's saturation/competition effects are spliced into the cached
    memory and competition products instead of re-scoring both chains. The
    candidate's q̃ ({!Strategy.effective_q}, plain [Instance.q] on plain
    instances), price and β go through {!Chain.marginal_cells}, the
    kernel {!Greedy} calls. The hot path of SL/RL-Greedy, rolling and the
    exact solvers. *)
