(** Maximum heap over float keys: insert and pop only.

    Dijkstra in the min-cost-flow substrate and the per-round heaps of
    SL/RL-Greedy use it. Neither needs decrease-key: Dijkstra re-inserts a
    node whose distance improved and skips stale pops, and each local
    greedy round re-inserts a refreshed element. G-Greedy's lazy forward
    runs on {!Two_level_heap}.

    The keys are kept in a flat unboxed float array (structure-of-arrays),
    so sift comparisons read contiguous memory. Equal keys pop in an order
    fixed by the sequence of operations, the same on every run. *)

type 'a t
(** A heap holding elements of type ['a]. *)

val create : unit -> 'a t
(** Fresh empty heap. *)

val is_empty : 'a t -> bool

val insert : 'a t -> key:float -> 'a -> unit
(** Add an element with the given priority; O(log n). *)

val delete_max : 'a t -> ('a * float) option
(** Remove and return the highest-priority element; O(log n). *)
