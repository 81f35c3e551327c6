(** User-sharded global greedy with capacity reconciliation — the planner's
    scale-out lever.

    Problem 1 couples users only through the item capacities: the display
    limit [k] binds per (user, time), so a partition of the users splits
    the ground set into independent sub-problems except for [q_i].
    [solve] exploits that structure in three deterministic phases:

    + {b Shard-local greedy.} {!Instance.shard} cuts the users into
      contiguous zero-copy views, each carrying a water-filled capacity
      budget; {!Greedy.run} plans every view independently on the
      {!Revmax_prelude.Pool} (results are identical for every [jobs]
      value).
    + {b Merge.} Shard strategies are united in shard order. Shards
      partition the users, so display slots cannot overflow; only items
      may end up over-subscribed, since the optimistic budgets overlap.
    + {b Capacity reconciliation.} While any item exceeds its global
      [q_i], the over-subscribed items release the (user, item) pairs of
      globally lowest removal loss (the chain-revenue delta of dropping
      the pair; ties to the lower user id) until each item is back at
      [q_i]; the released users then {e re-plan locally} — one
      {!Greedy.run} pass restricted to their triples with the merged
      strategy as base, whose [can_add] checks the true global
      constraints. A re-plan can never over-subscribe, so the fixed point
      is reached after at most one release round.
    + {b Quantity reconciliation.} On instances with a global
      [Instance.max_total] budget, every shard gets an optimistic
      [min cap shard-universe] quota, so the merged size may exceed the
      cap. After capacities settle, the triple of globally lowest removal
      loss (the chain-revenue delta of dropping that one triple; ties to
      the smaller triple) is released, one at a time with the ranking
      recomputed per step, until the strategy is back under the cap.
      Removals cannot violate any other constraint, so the result stays
      valid.

    On slate instances every phase is slot-aware: the merge preserves each
    shard's slot assignments (shards own whole (user, time) displays, so
    slots cannot collide), and both removal-loss ranking keys score chains
    at their members' slot-scaled effective probabilities.

    Proof obligations (enforced by the [@shard] qcheck suite and the
    golden fixtures):
    - the result is always a valid strategy w.r.t. {e all} of Problem 1's
      constraints — every [q_i] and every (user, time) display slot;
    - with [shards = 1] the selection is {e bit-identical} to a plain
      {!Greedy.run} (the single view is indistinguishable from the
      instance, the merge is the identity, and reconciliation never
      fires);
    - for a fixed (instance, shards) the output is deterministic,
      independent of [jobs]. *)

type stats = {
  shards : int;  (** number of user shards planned *)
  per_shard_selected : int array;  (** triples selected by each shard's greedy *)
  marginal_evaluations : int;  (** summed over shards and re-planning *)
  pops : int;  (** heap roots examined, summed *)
  selected : int;  (** final strategy size after reconciliation *)
  reconciliation_rounds : int;  (** release/re-plan rounds until the fixed point *)
  released_pairs : int;  (** (user, item) pairs released by over-subscribed items *)
  replanned : int;  (** triples re-added by the losers' local re-planning *)
  truncated : bool;  (** some phase was cut short by an expired budget *)
}

val solve :
  ?shards:int -> ?jobs:int -> ?budget:Revmax_prelude.Budget.t -> Instance.t -> Strategy.t * stats
(** [solve inst] plans with [shards] user shards (default
    {!default_shards}) on up to [jobs] domains (default
    {!Revmax_prelude.Pool.default_jobs}).

    [budget] is {!Revmax_prelude.Budget.split} across the shards
    (deterministic shares, shared deadline) and re-assembled afterwards;
    the re-planning phase charges the same budget. Truncation still
    yields a valid strategy — every shard returns a valid greedy prefix,
    the merge and reconciliation preserve validity — with
    [truncated = true] in the statistics. *)

val removal_loss : Instance.t -> Strategy.t -> u:int -> i:int -> float
(** The reconciliation ranking key: the revenue lost when user [u] gives
    up item [i] entirely — the chain-revenue delta of the one affected
    (user, class) chain. The serving layer ranks its releases by the same
    key. *)

val default_shards : unit -> int
(** The process-wide default shard count, used whenever [?shards] is
    omitted. Initialised from the [REVMAX_SHARDS] environment variable (a
    positive integer; unset, empty or unparsable means [1]); overridable
    with {!set_default_shards} (the CLI's [--shards] flag). *)

val set_default_shards : int -> unit
(** Override the default shard count. Values below 1 are clamped to 1. *)
