(** The §6 synthetic scalability datasets, generated exactly as the paper
    specifies (no MF pipeline — the ground truth is drawn directly):

    - |I| = 20K items; for each item a value [x_i ~ U\[10, 500\]] and prices
      [p(i,t) ~ U\[x_i, 2·x_i\]];
    - T = 5; each user has 100 items with non-zero adoption probability;
    - per item a level [y_i ~ U\[0,1\]]; each user–item pair draws its T
      probabilities from N(y_i, 0.1) (clamped into \[0,1\]) and the values
      are matched to the prices so that anti-monotonicity holds (largest
      probability at the cheapest time step);
    - 500 item classes.

    The input size is [100·T·|U|] candidate triples; the paper sweeps
    |U| ∈ {100K … 500K} (50M–250M triples) and we default to a 10×-reduced
    sweep with the full one behind a flag. *)

type config = {
  num_users : int;
  num_items : int;
  num_classes : int;
  items_per_user : int;
  horizon : int;
  capacity : Pipeline.capacity_spec;
  beta : Pipeline.beta_spec;
  display_limit : int;
  slate : float array option;
      (** position multipliers (length [display_limit]) attached to the
          generated instance; [None] (the default) generates a plain one *)
  max_total : int option;  (** global quantity budget; [None] = unbounded *)
}

val default_config : config
(** 10K users, 20K items, 500 classes, 100 items/user, T = 5, Gaussian
    capacities scaled to the user count, β ~ U\[0,1\], k = 5, no slate,
    no quantity budget. *)

val with_users : config -> int -> config
(** Same configuration at a different user count (capacity mean rescales
    proportionally). *)

val with_slate : config -> float array -> config
(** Attach slate position multipliers (e.g. {!Pipeline.position_curve}
    [config.display_limit]). Applied after all random draws, so the slate
    instance shares every sampled value with the plain one. *)

val with_quantity_fraction : config -> float -> config
(** Set the global quantity budget to the given fraction of the display
    volume [num_users · horizon · display_limit] (clamped to ≥ 1; the
    fraction must lie in (0, 1]). Like {!with_slate}, draw-order
    invariant. *)

val generate : config -> seed:int -> Revmax.Instance.t
(** Build the instance directly (no ratings/MF stage). Deterministic in
    [seed]. *)

val generate_pack : config -> seed:int -> path:string -> unit
(** Stream the same instance {!generate} would build straight into a pack
    file ({!Revmax.Instance.Pack}), one user row at a time — O(items +
    users) words of live memory (a row offset per user) plus one row,
    nothing per pair, so instances far beyond RAM can be produced.
    For equal [seed] and [config],
    [Revmax.Instance.of_mmap path] observes exactly the instance
    [generate] returns (same RNG consumption order; the equivalence is
    gated by the bench-scale cell and the [@scale] suite). *)

val table1_row : config -> seed:int -> string list
(** Dataset-statistics row for Table 1 without materializing algorithms. *)
