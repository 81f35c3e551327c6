(** The two-level heap of §5.1 of the paper, as one flat arena of int
    entries.

    Entries are non-negative ints; entry [e] belongs to group
    [e / width] (in the paper: a (user, item) pair, whose entries are the
    time steps of that pair). Each group is a small lower-level max-heap
    over its entries; an upper-level heap orders the groups by the key of
    their lower-level root. The globally best entry is always the root of
    the upper-level root's lower heap.

    The payoff over one giant heap is that key updates triggered by a
    greedy selection only traverse a lower heap of at most [width] entries
    plus the upper heap of at most [groups] groups — the rationale given in
    the paper.

    {b Order.} Higher keys come first; equal keys order by the smaller
    entry (an entry is its own tie rank), and groups with equal root keys
    by the smaller group. Since groups are [e / width], this is the flat
    strict order on (key, entry) pairs, so pop order is a function of the
    stored pairs alone, whatever sequence of operations stored them.

    {b Layout.} Group [g]'s lower heap occupies slots
    [\[g·width, g·width + size g)] of one float array of keys and of one
    byte array that holds each slot's entry as its 16-bit offset inside
    the group; each group's size takes two more bytes, and the upper heap
    is three flat arrays over groups: a float key, and a 32-bit group id
    and position. The heap costs [1.25·width + 2.25] words per group, all
    allocated by {!create}; no operation allocates afterwards. Floats enter and leave the hot operations through
    caller-owned cells, since without flambda a float crossing a call
    boundary is boxed. *)

type t

val create : groups:int -> width:int -> t
(** An empty heap for entries [0 .. groups·width − 1]. Raises
    [Invalid_argument] when [width] is below 1 or above 65,536, the most
    a 16-bit offset addresses, or when [groups] is negative or above
    2^31 − 1, the most a 32-bit group id addresses. *)

val size : t -> int
(** Total number of stored entries across all groups. *)

val is_empty : t -> bool

val insert : t -> float array -> int -> unit
(** [insert t cell e] adds entry [e], which must not be stored already,
    with key [cell.(0)] to group [e / width]; O(log) in the group and
    upper sizes. Raises [Invalid_argument] when the group already holds
    [width] entries. *)

val remove : t -> int -> unit
(** [remove t e] takes entry [e] out of its group if it is stored, and is
    a no-op otherwise: a scan of the group, O(width), then one sift in
    each level. *)

(** {2 Root operations}

    All of these require a non-empty heap and raise [Invalid_argument]
    otherwise — guard with [is_empty]. *)

val max_elt : t -> int
(** Best entry overall; O(1). *)

val max_key_into : t -> float array -> unit
(** Store the best entry's key into [cell.(0)]; O(1). *)

val drop_max : t -> unit
(** Remove the best entry. A drained group leaves the upper level. *)

val refresh_pair_into : t -> int -> float array -> f:(int -> unit) -> unit
(** [refresh_pair_into t g cell ~f] recomputes the key of every entry of
    group [g]: for each entry, [cell.(0)] is loaded with its current key,
    [f e] may rewrite [cell.(0)] (or leave it to keep the key), and the
    cell is stored back. The group is then re-heapified in O(group size)
    and re-keyed in the upper level. No-op when the group is empty. This
    is the bulk "recompute all stale triples of the lower heap" step of
    Algorithm 1. *)
