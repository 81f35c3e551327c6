(** Sampling semantics for the adoption model, used to validate [Rev(S)]
    empirically and to drive the behavioural examples.

    The grounding (documented in DESIGN.md): each triple [(u,i,t) ∈ S] draws
    an independent {e desire} coin with its adoption probability — the
    primitive [q(u,i,t)], or on slate instances the slot-scaled q̃ its
    chain caches, as {!Revenue.total} reads it — and an independent
    {e saturation} coin with probability [β_i^{M_S(u,i,t)}]. The user
    adopts [i] at [t] iff the triple's desire and saturation coins both
    succeed and {e no other} same-class triple at the same or an earlier
    time has a successful desire coin. Under this
    semantics adoptions within a class are mutually exclusive, and the
    marginal adoption probability of every triple is exactly [qS(u,i,t)] of
    Definition 1 — so the empirical mean revenue is an unbiased estimate of
    [Rev(S)]. *)

val simulate_chain : Strategy.t -> Chain.t -> Revmax_prelude.Rng.t -> Triple.t option
(** Simulate one (user, class) chain of the strategy; the adopted triple,
    if any. Desire coins are drawn in chain order with the members'
    cached q ({!Chain.q}). *)

val revenue_once : Strategy.t -> Revmax_prelude.Rng.t -> float
(** Total revenue of one simulated world. *)

val estimate_revenue :
  ?jobs:int -> Strategy.t -> samples:int -> Revmax_prelude.Rng.t -> Revmax_stats.Mc.estimate
(** Monte-Carlo estimate of the expected revenue; its mean converges to
    [Revenue.total] as samples grow. Worlds are simulated on up to [jobs]
    domains (default {!Revmax_prelude.Pool.default_jobs}) with one RNG
    stream split off per world, so the estimate is bit-identical for every
    [jobs] value (see {!Revmax_stats.Mc.estimate}). *)

type sales_report = {
  revenue : float;
  adoptions : Triple.t list;  (** what was bought, when *)
  stockouts : int;  (** adoption attempts lost to an empty stock *)
}

val run_with_stock : Strategy.t -> Revmax_prelude.Rng.t -> sales_report
(** Behavioural variant for the examples: each item starts with
    [Instance.capacity] units in stock; simulated adoptions consume stock in
    time order (random order within a time step) and an adoption attempt on
    an out-of-stock item is lost. This is the phenomenon the relaxed
    R-REVMAX objective models with [B_S(i,t)] (§4.2). *)
