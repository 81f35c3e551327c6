(** One (user, class) chain with cached per-triple aggregates — the
    incremental revenue engine shared by {!Strategy} and {!Revenue}.

    For each triple the chain caches its primitive probability, price and
    saturation factor together with the three derived quantities the revenue
    model of §3.1 is built from: the memory [M] (Equation 1), the
    competition product [Π (1 − q)] over earlier-or-tied triples, and the
    dynamic adoption probability (Definition 1). From these,
    {!Revenue.marginal_incremental} is O(L) per candidate instead of the
    O(L²) full re-evaluation of the naive oracle. The chain's revenue is
    not cached: {!revenue} sums it over the members when asked.

    Triples are ordered by {!Triple.chain_before} (time ascending, ties by
    item id); at most one triple per (time, item) may be present.

    {b Footprint.} A chain is a 6-word record and two flat arrays that
    start with room for one member and double: a float array of
    [6·capacity] (q, price, β, memory, competition and probability per
    member) and an int array of [2·capacity] (item and time per member;
    [3·capacity] with the slot on slate instances). No triple record and
    no chain total is stored: the accessors that return triples build
    them. A one-member chain takes 16 words and a two-member one 24; the
    strategy reaches it through the pointer each view pair of its row and
    class holds. The oracle cells and the 1/Δt table are held once per
    {!ctx}, which every chain of one strategy shares. *)

type ctx
(** Per-strategy constants: the instance, the oracle cells and the 1/Δt
    table. Chains of one context share its cells, so they must not be
    used from two domains at once unless every use is a read of the
    members or of {!revenue}. *)

val context : Instance.t -> ctx

type t

val create_in : ctx -> t
(** An empty chain of the context's strategy. *)

val create : Instance.t -> t
(** An empty chain with a context of its own. The instance supplies
    prices, probabilities and saturation factors for cache maintenance. *)

val length : t -> int
(** O(1) — the paper's [|set(u, C(i))|] lazy-forward reference value. *)

val user : t -> int
(** The user of the chain's members (that of its first insert). *)

val item : t -> int -> int
(** [item c j]: the item of the [j]-th member in chain order. *)

val time : t -> int -> int
(** [time c j]: the time step of the [j]-th member in chain order. *)

val q : t -> int -> float
(** [q c j]: the adoption probability cached for the [j]-th member — the
    [qz] it was inserted with, so the slot-scaled q̃ on slate
    strategies. *)

val slot : t -> int -> int
(** [slot c j]: the 1-based slot the [j]-th member was inserted with on
    slate instances; [0] on plain ones. *)

val to_list : t -> Triple.t list
(** Triples in chain order (freshly allocated). *)

val iter : t -> (Triple.t -> unit) -> unit
(** Visit the members in chain order as freshly built triples. *)

val mem : t -> Triple.t -> bool
(** O(log L). *)

val slot_of : t -> Triple.t -> int option
(** The slot a member was inserted with; [None] for non-members and on
    non-slate instances. *)

val insert : ?slot:int -> qz:float -> t -> Triple.t -> unit
(** Splice a triple in, updating every cached aggregate in O(L). [qz] is
    the member's adoption probability: [q(u,i,t)], or on slate
    strategies the slot-scaled effective q̃ = m_slot · q(u,i,t). It is
    taken from the caller, who has usually just looked the pair up,
    rather than looked up again. [slot] is recorded on slate instances
    only. Raises [Invalid_argument] on a duplicate. *)

val remove : t -> Triple.t -> unit
(** Remove exactly the given triple and rebuild the cached aggregates.
    Raises [Invalid_argument] if the triple is absent — a phantom removal is
    a bug in the caller, never a silent no-op. *)

val recompute : t -> unit
(** Rebuild every cached aggregate from the sorted members, in O(L²) —
    the rebuild {!remove} ends with. The cached floats depend on the
    order the members were inserted in (each insert folds its factors
    into the aggregates already there); after [recompute] they are bit
    for bit those of inserting the same members, with the same [qz], in
    ascending (time, item) order — the order {!Strategy.copy} rebuilds a
    chain in. Callers that mutate a strategy in place use it to keep
    outputs identical to a copy-based path. *)

val revenue : with_saturation:bool -> t -> float
(** The chain's revenue [Σ p_j · prob_j] ([prob_j = q_j · comp_j] without
    saturation), summed over the members' cached aggregates in chain
    order, O(L). *)

val aggregates : t -> Triple.t -> (float * float * float) option
(** A member's cached memory [M], competition product and dynamic
    adoption probability (with saturation); [None] if the triple is not
    in the chain. O(log L). For tests and diagnostics. *)

val prob : with_saturation:bool -> t -> Triple.t -> float option
(** Cached dynamic adoption probability of a member triple; [None] if the
    triple is not in the chain. O(log L). *)

val saturation_factor : float -> float -> float
(** [saturation_factor beta m] is the closed form [beta ** m] with the
    [m = 0] guard that keeps an empty memory exact even for [beta = 0].
    This is the single shared definition used by both the incremental chain
    aggregates and {!Revenue.dynamic_probability} — the two evaluators
    cannot drift. *)

val marginal : with_saturation:bool -> t -> Triple.t -> float
(** Revenue delta of inserting the (absent) triple, computed in O(L) from
    the cached aggregates without mutating the chain: the triple's own gain
    (its memory and competition are accumulated in the same pass) minus the
    saturation/competition losses it inflicts on same-time and later
    triples. Agrees with the naive [Rev(chain ∪ {z}) − Rev(chain)] up to
    floating-point rounding. *)

val oracle_cells : t -> float array
(** The context's preallocated unboxed oracle cells. Slots 3, 4 and 5
    are the [qz] (candidate adoption probability), [price] and [beta]
    (item saturation base) inputs of {!marginal_cells}; the caller stores
    them with plain float-array writes, which the compiler keeps unboxed.
    Slots 0-2 are internal accumulators. The array is shared by every
    chain of the context — treat its contents as dead once
    {!marginal_cells} returns, and as overwritten by any {!insert},
    {!remove} or {!recompute}. *)

val marginal_cells : with_saturation:bool -> t -> time:int -> res:float array -> unit
(** Zero-allocation kernel of {!marginal}: reads the candidate's [qz],
    [price] and [beta] from {!oracle_cells} slots 3..5 and stores the
    marginal into [res.(0)]. Every argument is an immediate or a pointer —
    without flambda a float argument or result of a non-inlined call is
    boxed on the minor heap, and this is the one function the steady-state
    selection loop runs per cycle, so the floats travel through
    preallocated cells instead. The O(L) scan allocates nothing.
    Bit-identical to {!marginal} when handed the same instance facts. *)

val marginal_flat :
  with_saturation:bool -> t -> time:int -> qz:float -> price:float -> beta:float -> float
(** Boxed-float façade over {!marginal_cells} (same single implementation,
    so the entry points cannot drift numerically): the candidate is
    described by its time step plus the three instance facts [q(u,i,t)],
    [p(i,t)] and the item's saturation base, so callers that hoist those
    lookups pay no hashtable probe and no option/tuple allocation per
    call. On native code the only heap traffic is the boxed float
    result. *)
