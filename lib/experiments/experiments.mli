(** One function per table/figure of the paper's evaluation (§6, §6.3, §7)
    plus the ablations DESIGN.md calls out. Each function prints the rows or
    series the corresponding paper artifact reports; EXPERIMENTS.md records
    paper-vs-measured values.

    All functions are deterministic given the configuration. *)

val table1 : Config.t -> unit
(** Table 1 — dataset statistics for Amazon-like, Epinions-like and the
    synthetic scalability set. *)

val fig1 : Config.t -> unit
(** Figure 1 — expected total revenue of the six algorithms under
    {normal, power, uniform} capacities, β ~ U\[0,1\], for both datasets and
    both class regimes (panels a–d). *)

val fig2 : Config.t -> unit
(** Figure 2 — revenue under uniform β ∈ {0.1, 0.5, 0.9}, class size > 1,
    Gaussian and exponential capacities (panels a–d). *)

val fig3 : Config.t -> unit
(** Figure 3 — as Figure 2 with every item in its own class. *)

val fig4 : Config.t -> unit
(** Figure 4 — revenue as a function of the strategy size while GG, RLG and
    SLG grow their solutions (the submodularity / "segments" curves). *)

val fig5 : Config.t -> unit
(** Figure 5 — histograms of the number of repeated recommendations per
    (user, item) pair made by G-Greedy for β ∈ {0.1, 0.5, 0.9}. *)

val table2 : Config.t -> unit
(** Table 2 — planning time of the suite on both datasets (uniform-random
    β, Gaussian capacities). *)

val fig6 : Config.t -> unit
(** Figure 6 — G-Greedy runtime versus the number of candidate triples on
    the synthetic sweep. *)

val fig7 : Config.t -> unit
(** Figure 7 — revenue with prices arriving in two sub-horizons (cut-offs
    2, 4, 5) for GG and RLG, against full information and SLG; β = 0.5,
    Gaussian and power-law capacities. *)

val ext_taylor : Config.t -> unit
(** §7 extension — expected revenue under random prices: mean-price
    heuristic (order-1) vs Taylor order-2 vs Monte-Carlo truth, for several
    price-noise levels. *)

val bench_shards : Config.t -> unit
(** Shard-scaling benchmark — {!Revmax.Shard_greedy.solve} at
    shards ∈ {1, 2, 4} against plain {!Revmax.Greedy.run}: revenue ratio
    (sharded/unsharded), wall time, and reconciliation work (rounds,
    released pairs, re-planned users). Aborts if shards=1 is not
    bit-identical to the unsharded run. *)

val abl_exact : Config.t -> unit
(** §3.2/§4 sanity — greedy-vs-optimal revenue ratios on micro instances
    (brute force and the T=1 Max-DCS solver), and the R-REVMAX local
    search's value and oracle cost. *)

val abl_rs : Config.t -> unit
(** §1/§2 recommender-agnosticism — rebuild the candidate set from the same
    ratings through the memory-based kNN and the content-based substrates
    instead of MF, and run the suite on all three instances. *)

val all : (string * string * (Config.t -> unit)) list
(** [(id, description, run)] for every experiment, in paper order. *)

val run_by_id : string -> Config.t -> bool
(** Run one experiment by id ("table1", "fig3", …); false if unknown. *)
