(** Small general-purpose helpers shared across the library. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] restricts [x] to the closed interval [\[lo, hi\]]. *)

val crc32_update : int -> bytes -> int -> int -> int
(** [crc32_update crc b off len]: the CRC-32 (IEEE 802.3 / zlib
    polynomial) of the bytes [crc] is the CRC-32 of, followed by
    [b.(off .. off+len-1)] (zlib's running [crc32]), as a non-negative
    int below [2^32]; [crc32_update 0] is the CRC-32 of the range alone.
    The serving journal chains its records with it. *)

val clamp_prob : float -> float
(** [clamp_prob x] clamps [x] to [\[0, 1\]]. *)

val float_equal : ?eps:float -> float -> float -> bool
(** Approximate float equality: absolute or relative difference below [eps]
    (default [1e-9]). *)

val sum_floats : float array -> float
(** Numerically robust (Kahan-compensated) sum. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val argmax : ('a -> float) -> 'a array -> int
(** Index of the maximizer (first among ties). Raises [Invalid_argument] on
    the empty array. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (or fewer if the list is short). *)

val range : int -> int list
(** [range n] is [\[0; 1; ...; n-1\]]. *)

val fold_range : int -> init:'a -> f:('a -> int -> 'a) -> 'a
(** [fold_range n ~init ~f] folds [f] over [0..n-1]. *)

val contains_substring : string -> string -> bool
(** [contains_substring haystack needle]: naive substring search, for
    asserting on human-readable error messages in tests. *)

val time_it : (unit -> 'a) -> 'a * float
(** [time_it f] runs [f ()] and returns its result together with the elapsed
    wall-clock time in seconds. *)

val allocated_words : (unit -> 'a) -> 'a * float
(** [allocated_words f] runs [f ()] and returns its result together with
    the words it allocated on the calling domain, minor and major heap
    alike (what it retains or frees does not matter). Work on other
    domains is not counted, including the {!Pool} workers [f] hands work
    to. Each read of the counters runs a minor collection first: OCaml
    5.1 counts a block allocated directly in the major heap only at the
    next one. *)

val with_index : 'a array -> (int * 'a) array
(** Pair every element with its index. *)

val group_by : ('a -> int) -> 'a list -> (int, 'a list) Hashtbl.t
(** Bucket list elements by an integer key. Order within a bucket follows the
    input order. *)

val top_k_by : int -> ('a -> float) -> 'a array -> 'a array
(** [top_k_by k score a] returns the [k] highest-scoring elements of [a]
    in descending score order (fewer if [a] is short). [a] is not modified. *)
