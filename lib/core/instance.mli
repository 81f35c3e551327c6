(** A REVMAX problem instance (Problem 1 of the paper): users, items grouped
    into competition classes, a short discrete horizon [1..T], a display
    limit [k], per-item capacities and saturation factors, exogenous prices
    [p(i,t)], and sparse primitive adoption probabilities [q(u,i,t)].

    Only (user, item) pairs with a positive adoption probability at some time
    are *candidates*; everything else is implicitly zero and never enters any
    algorithm's ground set — the paper's "number of triples with positive q
    is the true input size" (§6). Optionally a predicted rating [r̂_ui] per
    candidate pair is carried for the TopRA baseline.

    Time steps are 1-based ([1..horizon]) throughout the public API, matching
    the paper's [\[T\] = {1, …, T}].

    {b One representation.} Every instance holds its candidate pairs in the
    pack file's CSR layout (see {!Pack}): row offsets per user, and per
    pair one item id, [T] probabilities at [pid·T + t − 1] and, when
    ratings are attached, one rating (NaN = none), in three flat Bigarrays.
    {!create} fills them off the OCaml heap; {!of_mmap} maps them from a
    pack. The payload is [8·(T+1)] bytes per candidate pair, plus 8 with
    ratings; the OCaml heap holds only O(users + items) words (row offsets,
    item facts, prices). Both constructors therefore build the same thing,
    and every accessor reads it the same way. *)

type t

val create :
  num_users:int ->
  num_items:int ->
  horizon:int ->
  display_limit:int ->
  class_of:int array ->
  capacity:int array ->
  saturation:float array ->
  price:float array array ->
  ?ratings:(int * int * float) list ->
  ?slot_mult:float array ->
  ?max_total:int ->
  adoption:(int * int * float array) list ->
  unit ->
  t
(** [create] validates and freezes an instance.

    - [class_of], [capacity], [saturation] have length [num_items]; classes
      are dense ids starting at 0; [saturation.(i) ∈ [0,1]]; capacities are
      non-negative.
    - [price.(i)] has length [horizon] and holds [p(i, 1) … p(i, T)]; prices
      must be finite and non-negative.
    - [class_of.(i)] is below [num_items] (so there are at most as many
      classes as items).
    - [adoption] lists candidate pairs as [(u, i, qs)] with [qs] of length
      [horizon], [qs.(t-1) = q(u,i,t) ∈ [0,1]]; at most one entry per (u,i).
      The list may come in any order; rows are stored item-ascending. On
      several faults, the error names the first faulty entry in list order.
    - [ratings] optionally attaches predicted ratings to candidate pairs:
      a rating on a pair [adoption] does not list, or a NaN rating, is
      rejected (field [ratings]); a later rating of a pair replaces an
      earlier one.
    - [slot_mult] turns each (user, time) display into an ordered ad
      {e slate}: length [display_limit], non-increasing, each in [[0,1]];
      a recommendation in slot [s] has its [q(u,i,t)] scaled by
      [slot_mult.(s-1)]. Omitted = the paper's unordered k-set.
    - [max_total] imposes a global {e quantity budget}: the strategy may
      hold at most this many recommendations in total. Omitted = unbounded.

    Raises [Invalid_argument] on any violation. *)

val create_checked :
  num_users:int ->
  num_items:int ->
  horizon:int ->
  display_limit:int ->
  class_of:int array ->
  capacity:int array ->
  saturation:float array ->
  price:float array array ->
  ?ratings:(int * int * float) list ->
  ?slot_mult:float array ->
  ?max_total:int ->
  adoption:(int * int * float array) list ->
  unit ->
  (t, Revmax_prelude.Err.t) result
(** Like {!create} but never raises: any violation yields
    [Error (Invalid_instance {field; msg})] naming the rejected field
    ([num_users], [horizon], [class_of], [price], [adoption], …) and a
    per-element diagnostic. *)

(** {1 Dimensions and parameters} *)

val num_users : t -> int
val num_items : t -> int

val horizon : t -> int
(** [T]; valid time steps are [1..T]. *)

val display_limit : t -> int
(** [k]: maximum number of items shown to a user per time step. *)

val num_classes : t -> int

val class_of : t -> int -> int
(** Competition class of an item. *)

val class_size : t -> int -> int
(** Number of items in a class. *)

val capacity : t -> int -> int
(** [q_i]: maximum number of distinct users the item may be recommended to. *)

val saturation : t -> int -> float
(** [β_i]: the item's saturation factor. *)

val saturation_into : t -> int -> float array -> int -> unit
(** [saturation_into t i cells k] stores [saturation t i] into
    [cells.(k)] without boxing it, as {!pair_q_into} does for q. *)

val price : t -> i:int -> time:int -> float
(** [p(i,t)] for [time ∈ 1..T]. *)

val price_into : t -> i:int -> time:int -> float array -> int -> unit
(** [price_into t ~i ~time cells k] stores [price t ~i ~time] into
    [cells.(k)] without boxing it, as {!pair_q_into} does for q. *)

(** {1 Constraint variants}

    Two generalizations from the related work, both off by default:
    {e slates} (Keerthi–Tomlin: the (user, time) display is an ordered
    list of slots with position-dependent adoption multipliers) and a
    {e quantity budget} (Teng et al.: a global cap on the total number of
    recommendations — a uniform matroid intersected with the display
    partition matroid). Both are carried by the instance and enforced by
    [Strategy.validate]; {!shard} splits the quantity budget across views
    like an item capacity. *)

val is_slate : t -> bool
(** Whether the instance carries slate position multipliers. *)

val slot_multipliers : t -> float array option
(** The position multipliers, one per 1-based slot ([Array.length =
    display_limit]), non-increasing; [None] on plain instances. *)

val slot_factor : t -> slot:int -> float
(** Multiplier of 1-based [slot]; [1.0] on non-slate instances (so callers
    may fold it into [q] unconditionally). Raises [Invalid_argument] when
    the slot is out of range on a slate instance. *)

val max_total : t -> int option
(** The global quantity budget, if any. *)

val max_total_cap : t -> int
(** Sentinel form of {!max_total}: the cap, or [max_int] when unbounded —
    branch-free for hot-path comparisons against [Strategy.size]. *)

val with_slate : ?display_limit:int -> t -> float array -> t
(** A copy with slate position multipliers attached (shares the adoption
    data). [display_limit], when given, also replaces [k] — the
    multipliers must have that length. Same validation as {!create}'s
    [slot_mult]; raises [Invalid_argument] on violation. *)

val with_max_total : t -> int -> t
(** A copy with a global quantity budget attached (shares the adoption
    data). Raises [Invalid_argument] when negative. *)

val without_quantity_budget : t -> t
(** A copy with the quantity budget removed. *)

(** {1 Adoption probabilities} *)

val q : t -> u:int -> i:int -> time:int -> float
(** Primitive adoption probability [q(u,i,t)]; 0 for non-candidate pairs.
    An O(log row) search of the user's row ({!pair_find}); hot loops read
    {!pair_q} by pair id instead. *)

val is_candidate : t -> u:int -> i:int -> bool

val candidates : t -> int -> (int * float array) array
(** [candidates t u]: the user's candidate items, ascending, with their
    per-time probability vectors (index [t-1] is time [t]). The arrays are
    fresh copies: writing to them does not change the instance. *)

val candidate_items_in_class : t -> u:int -> cls:int -> int list
(** Candidate items of user [u] belonging to class [cls]. *)

val num_candidate_triples : t -> int
(** Number of triples with [q(u,i,t) > 0] — the input size of Table 1. *)

val iter_candidate_triples : t -> (Triple.t -> float -> unit) -> unit
(** Visit every positive-probability triple with its probability. *)

val rating : t -> u:int -> i:int -> float option
(** Predicted rating [r̂_ui] if attached (only candidate pairs carry one). *)

(** {1 Pair-indexed access}

    Candidate (user, item) pairs are stored in one CSR structure: user
    [u]'s pairs occupy the dense {e pair id} range given by the row
    offsets, item-ascending within the row. Pair ids are global (stable
    across {!shard} views) and strictly increasing in (user, item)
    lexicographic order, which makes them usable as deterministic heap
    tie-breakers. The pair-indexed accessors below are the hot path: they
    read the flat Bigarrays directly, with no OCaml-heap data at all. *)

val pair_count : t -> int
(** Total number of candidate pairs of the full instance. *)

val pair_range : ?users:int * int -> t -> int * int
(** The view's pair-id range [(lo, hi)) — [(0, pair_count t)] for a full
    instance; with [users], the range of those users' rows (see
    {!iter_candidate_pairs}). *)

val pair_item : t -> int -> int
(** The item of a pair id. *)

val pair_user : t -> int -> int
(** The user of a pair id (binary search over the row offsets; intended
    for cold paths — hot loops should carry the user alongside). *)

val pair_q : t -> pid:int -> time:int -> float
(** [q(u,i,t)] addressed by pair id — no bounds or candidacy check beyond
    the array access itself. *)

val pair_q_into : t -> pid:int -> time:int -> float array -> int -> unit
(** [pair_q_into t ~pid ~time cells k] stores [pair_q t ~pid ~time] into
    [cells.(k)]. Allocation-free: without flambda the float result of
    {!pair_q} is boxed at every call, which is why hot loops read q
    through a cell instead. *)

val pair_find : t -> u:int -> i:int -> int
(** The pair id of [(u, i)], or [-1] when the pair is not a candidate. *)

val pair_row : t -> int -> int * int
(** [pair_row t u]: the pair-id range [(lo, hi)) of user [u]'s candidate
    row. *)

val row_offset : t -> int -> int
(** [row_offset t u]: the first pair id of user [u]'s row, for [u] in
    [0 .. num_users]; the row is [\[row_offset t u, row_offset t (u + 1))],
    the range {!pair_row} returns without the tuple it allocates. *)

val iter_candidate_pairs : ?users:int * int -> t -> (u:int -> pid:int -> unit) -> unit
(** Visit the view's candidate pairs in pair-id order (users ascending,
    items ascending within a user) — only the rows of users
    [lo .. hi - 1] when [users = (lo, hi)], a sub-range of
    {!user_range}, whose pairs are exactly [pair_range ~users]. *)

(** {1 Out-of-core packs}

    A {e pack} is an on-disk instance representation (little-endian,
    64-bit words) whose pair-level payload — adoption vectors, pair item
    ids, optional ratings — is the in-memory layout itself, so {!of_mmap}
    maps it instead of loading it: only the O(num_items) item facts and
    O(num_users) row offsets enter the OCaml heap, and a 10^6-user ×
    10^4-item instance plans without materializing gigabytes of
    candidates. A mapped instance and one built by {!create} hold the same
    IEEE doubles in the same places, so they plan bit-identically. *)

module Pack : sig
  type writer
  (** A streaming pack writer: candidate rows are written user by user,
      so the full instance never needs to exist in memory. The per-pair
      trailer sections (item ids, and ratings once the first one is
      given) stream to sibling scratch files [path ^ ".items"] and
      [path ^ ".ratings"], so the writer holds O(items + users) words
      however many pairs it writes. *)

  val create_writer :
    path:string ->
    num_users:int ->
    num_items:int ->
    horizon:int ->
    display_limit:int ->
    class_of:int array ->
    capacity:int array ->
    saturation:float array ->
    price:float array array ->
    ?slot_mult:float array ->
    ?max_total:int ->
    unit ->
    writer
  (** Validates the item-level arrays (same checks as {!create}) and
      writes the pack header and item sections. [slot_mult] / [max_total]
      persist the constraint variants (packs written without them read
      back as plain instances, and old packs remain readable). Raises
      [Invalid_argument] on violation. *)

  val add_user : writer -> u:int -> ?ratings:float option array -> (int * float array) array -> unit
  (** [add_user w ~u row] appends user [u]'s candidate row — items
      strictly ascending, each with a length-[horizon] probability vector
      in [[0,1]] — streaming the probabilities straight to disk. Users
      must arrive exactly in order [0 .. num_users-1] (empty rows
      included). [ratings], when given, aligns with [row] and attaches
      predicted ratings per candidate pair. *)

  val finish : writer -> unit
  (** Writes the deferred trailer sections (pair items, row offsets,
      ratings) by appending the scratch files and removing them, patches
      the header counts, and closes the file. Raises [Invalid_argument]
      unless every user was added. *)
end

val pack_to_file : t -> string -> unit
(** Serialize a full instance (built or mapped) to a pack file by writing
    its arrays as the pack's sections. Raises [Invalid_argument] on a
    shard view. *)

val of_mmap : string -> t
(** Open a pack file as a memory-mapped instance. Validates the header,
    the byte order (through the same mapped-read path the planner uses),
    the row structure and every probability in one pass — which also
    pre-faults the pages — then maps the pair sections read-only.
    Raises [Invalid_argument] on any violation. *)

val of_mmap_checked : string -> (t, Revmax_prelude.Err.t) result
(** Like {!of_mmap} but never raises: violations yield
    [Error (Invalid_instance {field; msg})]. Each header count is held to
    the file's size before it multiplies or sizes anything, so a corrupt
    header cannot overflow the size check or allocate beyond the file. *)

(** {1 Derived views} *)

val with_saturation_disabled : t -> t
(** A copy whose saturation factors are all 1 (shares the underlying adoption
    data) — used by the GlobalNo variant, which plans as if there were no
    saturation. O(num_items). *)

val with_prices : t -> float array array -> t
(** A copy with a replaced price matrix (same shape checks as [create]) —
    used by the random-price extension to plan against mean prices. *)

(** {1 User-sharded views}

    The only coupling between users in Problem 1 is the capacity
    constraint: the display limit [k] binds per (user, time) while [q_i]
    is global. A {e shard view} therefore restricts an instance to a
    contiguous user range and equips it with a per-shard {e capacity
    budget}; planning on the views is embarrassingly parallel and only
    capacity needs global reconciliation (see {!Shard_greedy}). *)

val shard : shards:int -> t -> t array
(** [shard ~shards t] partitions the users into [shards] contiguous,
    near-equal views (earlier shards take the remainder). Views are
    zero-copy — they share every underlying array of [t] except the
    capacity vector, which holds the shard's budget — and keep {e global}
    user ids, so strategies planned on a view merge into the parent
    instance without renaming. [iter_candidate_triples] and
    [num_candidate_triples] reflect only the view's users; point lookups
    ([q], [price], [candidates], …) remain valid for any user id.

    Budgets are {e water-filled}: every shard may use an item up to
    [min q_i (shard user count)] — optimistic, since capacity counts
    distinct users and a shard can never need more than its user count.
    Budgets may over-subscribe [q_i] globally; {!Shard_greedy}'s
    reconciliation round resolves the contention. A quantity budget
    splits the same way: each shard gets [min max_total (its selection
    ceiling)], and the planner's merge-time trim resolves
    over-subscription. Slate multipliers are global and shared by every
    view.

    With [shards = 1] the single view's behaviour is indistinguishable
    from [t]. Raises [Invalid_argument] when [shards < 1] or [t] is
    itself a shard view. *)

val user_range : t -> int * int
(** The view's user range [(lo, hi)) — [(0, num_users)] for a full
    instance. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line instance statistics (users/items/classes/triples). *)
