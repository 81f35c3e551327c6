(** A mutable recommendation strategy [S ⊆ U × I × \[T\]] with the indices
    the algorithms of §5 need in O(1)/O(log):

    - membership and cardinality;
    - the (user, class) {e chains} — time-sorted lists of same-user
      same-class triples, the unit over which revenue decomposes;
    - display counters per (user, time) and distinct-user counters per item,
      for the two validity constraints of Problem 1.

    {b Footprint.} Over the instance view's CSR pair range, each
    candidate pair holds one bit per time step of membership (a pair's
    repetition count is the number of its set bits) and one chain
    pointer: every pair of a (user, class) row points at that key's
    {!Chain.t}, or at the strategy's one empty sentinel until the key's
    first add. An empty strategy is therefore one word plus [T] bits per
    view pair, plus [T+1] words of display fill per view user. Members
    live only in their chains, one float block each: 11, 19 and 35 words
    at room for 1, 2 and 4 members (12, 21 and 39 on slates; see
    {!Chain}). An add whose insert doubles a chain's block stores the new
    block into every pair of the row that held the old one, or into its
    overflow entry, so a pair's pointer is always its key's live chain. A
    plan of mostly one-member chains costs about 12 words per selection
    beyond its instance. (User, class) keys with no view pair
    of that class (out-of-view users, or a non-candidate triple whose
    class has no candidate in the row) and pairs outside the view go
    through small overflow tables, which stay empty on every planner
    path.

    {b Orders.} {!iter_chains} visits the chains users ascending, then
    each user's by its first (time, item): the order in which a fold over
    {!to_list} first meets each chain. It depends only on the members,
    not on the order the chains were first added in. {!Revenue.total}
    sums in it and {!Simulate} draws its worlds' coins in it. *)

type t

val create : Instance.t -> t
(** Empty strategy for an instance. *)

val instance : t -> Instance.t

val size : t -> int

val mem : t -> Triple.t -> bool

val mem_at : t -> u:int -> i:int -> time:int -> bool
(** [mem_at t ~u ~i ~time] is [mem t (Triple.make ~u ~i ~t:time)]
    without building the triple: one pair lookup and one bit for a pair
    of the view. [false] for out-of-range ids. *)

val add : ?slot:int -> t -> Triple.t -> unit
(** Raises [Invalid_argument] if the triple is already present or its ids
    are out of range. Does {e not} enforce validity — R-REVMAX strategies
    may exceed capacities on purpose; use [can_add] / [is_valid] to enforce
    Problem 1's constraints.

    On a slate instance the triple occupies ordered slot [slot] (1-based);
    when omitted, the lowest unoccupied slot of the (user, time) display is
    auto-assigned — deterministic, and optimal under the non-increasing
    multipliers. The chain stores the slot-scaled effective probability
    [slot_mult.(slot-1) · q(u,i,t)]. [slot] raises [Invalid_argument] when
    out of [1..k] or given on a non-slate instance; claiming an occupied
    slot is {e allowed} (like an over-limit display add) and reported by
    {!violations} as a [Slot_conflict]. *)

val add_unchecked : t -> u:int -> i:int -> time:int -> pid:int -> slot:int -> unit
(** The add {!add} makes once its checks pass, by ids: [pid] must be
    [Instance.pair_find] of [(u, i)] ([-1] when the pair is no
    candidate), the ids in range and the triple absent — it probes
    neither, and a member added again corrupts the strategy. [slot] is
    {!add}'s on slate instances, [0] to auto-assign, and ignored on
    plain ones. No triple, tuple or boxed float is built: the greedy's
    accept path adds through it with the pair id it already holds. *)

val add_result : ?slot:int -> t -> Triple.t -> (unit, Revmax_prelude.Err.t) result
(** Like {!add} but never raises on bad triples: a duplicate or
    out-of-range triple yields [Error (Invalid_strategy [_])] carrying the
    offending triple. Unlike {!add} it also enforces the global quantity
    budget: an add past [Instance.max_total] yields
    [Error (Invalid_strategy [Quantity_budget _])] naming the overshoot
    and the cap. (A malformed [slot] argument still raises — it is a
    caller bug, not strategy state.) *)

val remove : t -> Triple.t -> unit
(** Removes exactly one occurrence. Raises [Invalid_argument] if the triple
    is absent, or if the internal chain index lost track of it (phantom
    removals are never silently ignored). *)

val to_list : t -> Triple.t list
(** All triples in [Triple.compare] order: one pass over the chains and
    one sort of packed integer keys, O(|S| log |S|), after which each
    triple is built once; the row accessors below reach one pair's,
    item's or user's triples without that sort. *)

(** {1 Row accessors}

    Operations on one pair's, one item's or one user's triples of a live
    strategy, none of which sorts it. *)

val remove_pair : t -> u:int -> i:int -> unit
(** Remove every member triple of the (user, item) pair, probing its [T]
    times in ascending order: O(T) probes plus one chain rebuild per
    removed triple. A no-op when the pair holds nothing. *)

val item_holders : t -> int -> int list
(** The distinct users holding item [i], ascending: one pair lookup per
    view user, O(users · log row), plus the overflow pairs, without the
    sort of {!to_list}. *)

val recompute_chains : ?u:int -> t -> unit
(** {!Chain.recompute} every chain, or only user [u]'s: afterwards each
    chain's cached aggregates are exactly those {!copy} would rebuild. A
    caller that grows a strategy in place, instead of planning on a
    copy, calls it on the chains the copy would have rebuilt
    differently. *)

val of_list : Instance.t -> Triple.t list -> t

val copy : t -> t
(** Independent deep copy (slate slot assignments included). *)

(** {1 Slates}

    Meaningful only on instances with [Instance.slot_multipliers]; on
    plain instances {!slot_of} is always [None] and {!effective_q}
    degenerates to [Instance.q]. *)

val slot_of : t -> Triple.t -> int option
(** The 1-based slot a member triple occupies; [None] for non-members and
    on non-slate instances. *)

val slot_occupied : t -> Triple.t -> slot:int -> bool
(** Whether some member of the triple's (user, time) display already holds
    the given slot. Always [false] on plain instances. *)

val next_free_slot : t -> Triple.t -> int
(** The slot an auto-assigning {!add} of this triple would take: the
    lowest unoccupied slot of its (user, time) display, or [k] when the
    display is full. [1] on non-slate instances (every display has one
    implicit slot per item). *)

val effective_q : t -> Triple.t -> float
(** The slot-scaled adoption probability [slot_mult.(slot-1) · q(u,i,t)]:
    a member's assigned slot, a non-member's {!next_free_slot}. Plain
    [Instance.q] on non-slate instances. *)

(** {1 Chains} *)

val chain : t -> u:int -> cls:int -> Triple.t list
(** Same-user same-class triples in ascending time order (ties in time in
    ascending item order). Freshly allocated; prefer {!chain_view} on hot
    paths. *)

val chain_of_triple : t -> Triple.t -> Triple.t list
(** The chain that the triple's (user, class) pair selects — whether or not
    the triple itself is in the strategy. *)

val chain_view : t -> u:int -> cls:int -> Chain.t option
(** The live array-backed chain with its cached aggregates; [None] when the
    (user, class) pair holds no triples. The returned chain is the
    strategy's own state — do not mutate it directly. A scan of the
    user's row for a pair of the class, O(row). *)

val chain_view_of_triple : t -> Triple.t -> Chain.t option
(** {!chain_view} keyed by a triple's (user, class) pair: one
    {!Instance.pair_find} when the triple's (user, item) is a view pair,
    the row scan of {!chain_view} otherwise. *)

val chain_context : t -> Chain.ctx
(** The context every chain of the strategy shares, for the {!Chain}
    functions. *)

val pair_chain : t -> int -> Chain.t
(** [pair_chain t pid]: the chain of view pair [pid]'s (user, class), read
    from the pair's own pointer. It has length 0 when the key holds no
    triples (it is then the strategy's empty sentinel, or a chain that
    removals emptied). The strategy's own state — do not mutate it.
    Raises [Invalid_argument] when [pid] is not a pair of the instance
    view's range. A later add may move the chain to a new block: read
    the pointer again rather than keep the chain across adds. *)

val chain_size : t -> u:int -> cls:int -> int
(** The paper's [|set(u, C(i))|], the lazy-forward flag reference value of
    Algorithm 1: the row scan of {!chain_view}, O(row). Hot loops that
    hold the pair id read [Chain.length (pair_chain t pid)] instead. *)

val iter_chains : t -> (Chain.t -> unit) -> unit
(** Visit every non-empty chain once, in the order of {b Orders} above.
    One pass over the view's pairs; each user's chains are sorted in a
    buffer reused from user to user, so the visit allocates
    O(classes + the most chains of one user) words, plus the overflow
    chains' (see {b Footprint}). It reads the strategy and writes
    nothing else, so several domains may walk one strategy at once. The
    callback must not modify the strategy. *)

(** {1 Constraint bookkeeping} *)

val display_count : t -> u:int -> time:int -> int
(** Number of items recommended to [u] at [time]. *)

val item_user_count : t -> int -> int
(** Number of distinct users the item is recommended to. *)

val item_has_user : t -> i:int -> u:int -> bool

val can_add : t -> Triple.t -> bool
(** True iff the triple is absent and adding it keeps the display
    constraint ([display_count < k]), the capacity constraint
    ([item_user_count < q_i], unless the user already receives the item),
    and the global quantity budget ([size < Instance.max_total], when the
    instance carries one). *)

val is_valid : t -> bool
(** Both constraints of Problem 1 hold for the whole strategy. *)

val is_valid_display_only : t -> bool
(** Only the display constraint — validity in the R-REVMAX sense (§4.2). *)

val violations : t -> Revmax_prelude.Err.violated_constraint list
(** Every violated constraint of Problem 1 (and of the active constraint
    variants), in a deterministic order: display-limit overflows (with the
    offending user, time, count, and limit) sorted by (user, time), then
    slate slot conflicts sorted by (user, time, slot), then capacity
    overflows (with the offending item, its distinct-user count, and its
    capacity) sorted by item, then the quantity-budget breach (with the
    total count and the cap), if any, last. Empty iff {!is_valid}. *)

val validate : t -> (unit, Revmax_prelude.Err.t) result
(** Like {!is_valid} but explains failure: [Error (Invalid_strategy cs)]
    carries the complete witness set of {!violations} — every violated
    constraint, not just the first — so callers (e.g. the sharding
    reconciliation tests) can assert the precise set of over-subscribed
    items and overflowing display slots. *)

(** {1 Reporting} *)

val repeat_histogram : t -> int array
(** Element [r-1] counts (user, item) pairs recommended exactly [r] times —
    the data behind Figure 5. Length = horizon. *)

val item_recommendations_up_to :
  t -> i:int -> time:int -> (int, Triple.t list) Hashtbl.t
(** Per-user lists of recommendations of item [i] at times ≤ [time]
    (ascending time within a user) — the [S_{i,t}] of Definition 4. The
    table is filled in ascending user order, so its iteration order, which
    fixes the order {!Capacity_oracle} folds adopter probabilities and
    draws Monte-Carlo coins in, depends only on the holders' ids. *)

val pp : Format.formatter -> t -> unit
