(** One (user, class) chain with cached per-triple aggregates — the
    incremental revenue engine shared by {!Strategy} and {!Revenue}.

    For each triple the chain caches its primitive probability, price and
    saturation factor together with the three derived quantities the revenue
    model of §3.1 is built from: the memory [M] (Equation 1), the
    competition product [Π (1 − q)] over earlier-or-tied triples, and the
    dynamic adoption probability (Definition 1). From these,
    {!Revenue.marginal_incremental} is O(L) per candidate instead of the
    O(L²) full re-evaluation of the naive oracle. The chain's revenue is
    not cached.

    Triples are ordered by {!Triple.chain_before} (time ascending, ties by
    item id); at most one triple per (time, item) may be present.

    {b Layout.} A chain is one unboxed float block: two header floats
    (the length and the user), then per member, in chain order, its
    time, item, q, price, β, memory, competition and probability, and on
    slate instances its slot. The member width — 8 floats, 9 on slates —
    is the context's, as are the oracle cells and the 1/Δt table, so
    every function takes the {!ctx} of the chain's strategy. Ids and
    times are stored as floats, exactly.

    {b Growth.} {!create} returns a block with room for no member. An
    insert into a full block copies it into a new one with twice the
    room and returns the new block; the old one is dead. The room goes
    1, 2, 4, 8, then 15 rather than 16 (14 on slates), the most a
    128-word block holds, then 30, 60, …: the OCaml 5 runtime pools
    blocks of up to 128 words and mallocs each larger one, and on
    plan-dense's long chains the plain 16-member step raised the peak
    RSS by 4 MB.
    Whoever holds the chain must then store the returned block wherever
    it kept the old one: {!Strategy} repoints every pair of the
    (user, class) row, or the overflow entry, that held it.

    {b Footprint.} A chain of capacity 1, 2 and 4 takes 11, 19 and 35
    words (one block header, two floats, and 8 per member of room); 12,
    21 and 39 on slates. No triple record and no chain total is stored:
    the accessors that return triples build them. *)

type ctx
(** Per-strategy constants: the instance, the oracle cells, the 1/Δt
    table and the member width. Chains of one context share its cells,
    so they must not be used from two domains at once unless every use
    is a read of the members. *)

val context : Instance.t -> ctx

type t

val create : unit -> t
(** An empty chain with room for no member: its first {!insert} returns
    a new block. *)

val length : t -> int
(** O(1) — the paper's [|set(u, C(i))|] lazy-forward reference value. *)

val user : t -> int
(** The user of the chain's members (that of its first insert). *)

val item : ctx -> t -> int -> int
(** [item ctx c j]: the item of the [j]-th member in chain order. *)

val time : ctx -> t -> int -> int
(** [time ctx c j]: the time step of the [j]-th member in chain order. *)

val q : ctx -> t -> int -> float
(** [q ctx c j]: the adoption probability cached for the [j]-th member —
    the [qz] it was inserted with, so the slot-scaled q̃ on slate
    strategies. *)

val slot : ctx -> t -> int -> int
(** [slot ctx c j]: the 1-based slot the [j]-th member was inserted with
    on slate instances; [0] on plain ones. *)

val member : ctx -> t -> int -> float array
(** [member ctx c j]: a fresh copy of the [j]-th member's stored floats
    in block order (time, item, q, price, β, memory, competition,
    probability, and the slot on slates). For tests and diagnostics. *)

val to_list : ctx -> t -> Triple.t list
(** Triples in chain order (freshly allocated). *)

val mem : ctx -> t -> Triple.t -> bool
(** O(log L). *)

val slot_of : ctx -> t -> Triple.t -> int option
(** The slot a member was inserted with; [None] for non-members and on
    non-slate instances. *)

val insert : ctx -> ?slot:int -> qz:float -> t -> Triple.t -> t
(** Splice a triple in, updating every cached aggregate in O(L), and
    return the chain's block: [c] itself, or a new block of twice the
    room when [c] was full (see {b Growth}). [qz] is the member's
    adoption probability: [q(u,i,t)], or on slate strategies the
    slot-scaled effective q̃ = m_slot · q(u,i,t). It is taken from the
    caller, who has usually just looked the pair up, rather than looked
    up again. [slot] is recorded on slate instances only. Raises
    [Invalid_argument] on a duplicate. *)

val insert_cells : ctx -> t -> u:int -> i:int -> time:int -> slot:int -> t
(** {!insert} of the triple [(u, i, time)] with [qz] read from
    {!oracle_cells} slot 3 and no duplicate probe: the caller knows the
    triple is absent (inserting a member again corrupts the chain). No
    float crosses the call, and the member's price and β go from the
    instance straight into the block, so the only allocation is a
    grown block. *)

val remove : ctx -> t -> Triple.t -> unit
(** Remove exactly the given triple and rebuild the cached aggregates.
    The block keeps its room. Raises [Invalid_argument] if the triple is
    absent — a phantom removal is a bug in the caller, never a silent
    no-op. *)

val recompute : ctx -> t -> unit
(** Rebuild every cached aggregate from the sorted members, in O(L²) —
    the rebuild {!remove} ends with. The cached floats depend on the
    order the members were inserted in (each insert folds its factors
    into the aggregates already there); after [recompute] they are bit
    for bit those of inserting the same members, with the same [qz], in
    ascending (time, item) order — the order {!Strategy.copy} rebuilds a
    chain in. Callers that mutate a strategy in place use it to keep
    outputs identical to a copy-based path. *)

val prob : ctx -> with_saturation:bool -> t -> Triple.t -> float option
(** Cached dynamic adoption probability of a member triple; [None] if the
    triple is not in the chain. O(log L). *)

val saturation_factor : float -> float -> float
(** [saturation_factor beta m] is the closed form [beta ** m] with the
    [m = 0] guard that keeps an empty memory exact even for [beta = 0].
    This is the single shared definition used by both the incremental chain
    aggregates and {!Revenue.dynamic_probability} — the two evaluators
    cannot drift. *)

val oracle_cells : ctx -> float array
(** The context's preallocated unboxed oracle cells. Slots 3, 4 and 5
    are the [qz] (candidate adoption probability), [price] and [beta]
    (item saturation base) inputs of {!marginal_cells}, and slot 3 the
    [qz] input of {!insert_cells}; the caller stores them with plain
    float-array writes, which the compiler keeps unboxed. Slots 0-2 are
    internal accumulators. The array is shared by every chain of the
    context — treat its contents as dead once {!marginal_cells} returns,
    and as overwritten by any {!insert}, {!remove} or {!recompute}. *)

val marginal_cells : ctx -> with_saturation:bool -> t -> time:int -> res:float array -> unit
(** The chain's one oracle entry: the revenue delta of inserting an
    absent candidate at [time], computed in O(L) from the cached
    aggregates without mutating the chain — the candidate's own gain
    (its memory and competition are accumulated in the same pass) minus
    the saturation and competition losses it inflicts on same-time and
    later members. Agrees with the naive [Rev(chain ∪ {z}) − Rev(chain)]
    up to floating-point rounding. The candidate's [qz], [price] and
    [beta] are read from {!oracle_cells} slots 3..5 and the marginal is
    stored into [res.(0)] ([res] may be the cells themselves). Every
    argument is an immediate or a pointer — without flambda a float
    argument or result of a non-inlined call is boxed on the minor heap,
    and this is the one function the steady-state selection loop runs
    per cycle, so the floats travel through preallocated cells instead.
    The O(L) scan allocates nothing. *)
