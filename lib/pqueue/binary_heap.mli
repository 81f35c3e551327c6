(** Maximum binary heap over float keys with stable handles.

    Each inserted element returns a handle through which its key can later be
    updated ([update_key]) or the element removed ([remove]) in O(log n).
    This supports the Decrease-Key operations required by the lazy-forward
    greedy selection of the paper (§5.1) and by Dijkstra's algorithm in the
    min-cost-flow substrate.

    The keys are kept in a flat unboxed float array parallel to the element
    array (structure-of-arrays), so sift comparisons read contiguous memory
    and [update_key] never boxes the new key.

    Ordering is the strict total order on (key, tie rank): elements with
    equal keys order by the integer [tie] given at insertion, smaller rank
    first — the element a naive first-maximum-wins argmax scan would pick
    (insertion order is irrelevant to pop order). Callers that need
    reproducible pop sequences across rebuilds, shards or lazy policies
    pass a stable element id as the rank; the default rank [0] leaves
    equal-key order unspecified-but-deterministic for a fixed operation
    sequence. *)

type 'a t
(** A heap holding elements of type ['a]. *)

type 'a handle
(** Stable reference to an element inside a heap. A handle becomes invalid
    once its element has been removed; [contains] reports validity. *)

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty heap. [capacity] is a size hint. *)

val size : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val insert : 'a t -> key:float -> ?tie:int -> 'a -> 'a handle
(** Add an element with the given priority; O(log n). [tie] (default [0])
    is the element's tie rank: equal keys pop smaller-rank first. *)

val find_max : 'a t -> ('a * float) option
(** Highest-priority element and its key, without removing it; O(1). *)

val delete_max : 'a t -> ('a * float) option
(** Remove and return the highest-priority element; O(log n). *)

val update_key : 'a t -> 'a handle -> float -> unit
(** Change an element's priority (up or down); O(log n). Raises
    [Invalid_argument] if the handle is no longer in the heap. *)

val remove : 'a t -> 'a handle -> unit
(** Remove an arbitrary element; O(log n). Raises [Invalid_argument] if the
    handle is no longer in the heap. *)

val contains : 'a t -> 'a handle -> bool
(** Whether the handle still refers to a stored element of this heap. *)

val key : 'a t -> 'a handle -> float
(** Current key of a valid handle of this heap; the key lives in the heap's
    flat key array, not in the handle. Raises [Invalid_argument] if the
    handle is stale or foreign. *)

val value : 'a handle -> 'a
(** Element carried by the handle. *)

val iter : 'a t -> ('a -> float -> unit) -> unit
(** Visit all stored elements in unspecified order. The callback must not
    modify the heap. *)

val of_list : (float * 'a) list -> 'a t
(** Bulk build (heapify) in O(n); all tie ranks default to [0]. *)

val to_sorted_list : 'a t -> ('a * float) list
(** Non-destructive: all elements in descending key order; O(n log n). *)
