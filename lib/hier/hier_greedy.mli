(** Two-level shard-of-shards planning: process-level partitions over the
    user-sharded grid, domain-level shards within each process.

    [solve ~procs:p ~shards_per_proc:s] cuts the users into [p × s] flat
    contiguous shard views ({!Revmax.Instance.shard} — the {e same} views
    the in-process planner would use), forks [p] worker processes, and
    gives each worker [s] consecutive views to plan on its own domain
    pool. Workers stream their shard strategies back shard-ascending over
    CRC-framed pipes ({!Wire}); the parent merges them in flat shard
    order and runs capacity reconciliation, querying the workers for the
    over-subscribed items' loss-ranked candidate lists — only those
    items' lists ever cross a process boundary — and broadcasting each
    item's released pairs so worker-side chains stay synchronized.

    {b The output is bit-identical to
    [Shard_greedy.solve ~shards:(p × s)]}: the views, the per-shard
    greedy runs, the merge order, the loss doubles (computed worker-side
    against the same per-user chains, shipped as IEEE-754 bit patterns)
    and the release/re-plan sequence all coincide with the in-process
    planner's. Hierarchy buys memory isolation — each worker touches only
    its users' planner state, and with a memory-mapped instance the
    processes share one page cache — never a different plan. This
    equivalence is the [@hier] test obligation and the bench-scale
    invariance gate.

    When the runtime refuses [fork] (OCaml 5.1 latches this once any
    domain has been spawned; see {!Revmax_prelude.Pool.quiesce}), [solve]
    degrades to the in-process planner over the same [p × s] flat shards
    — same result, [degraded = true] in the statistics.

    There is no [?budget]: a wall-clock deadline cannot be shared across
    address spaces without a coordination channel the protocol does not
    need otherwise. Bound planning time by sizing the grid instead. *)

type stats = {
  procs : int;  (** worker processes requested (1 plans in-process) *)
  shards_per_proc : int;  (** domain-level shards per process *)
  policy : Revmax.Instance.split_policy;
  degraded : bool;  (** true when fork was unavailable and planning fell back in-process *)
  per_shard_selected : int array;  (** per flat shard, length [procs × shards_per_proc] *)
  marginal_evaluations : int;
  pops : int;
  selected : int;
  reconciliation_rounds : int;
  released_pairs : int;
  replanned : int;
  truncated : bool;
}

val solve :
  ?policy:Revmax.Instance.split_policy ->
  ?procs:int ->
  ?shards_per_proc:int ->
  ?jobs:int ->
  ?with_saturation:bool ->
  Revmax.Instance.t ->
  Revmax.Strategy.t * stats
(** [solve inst] plans over [procs] processes (default {!default_procs})
    × [shards_per_proc] shards each (default 1), with up to [jobs]
    domains per process. Raises [Failure] if a worker reports an error,
    and {!Wire.Protocol_error} on a corrupted or truncated pipe stream;
    worker processes are killed and reaped on every failure path. *)

val default_procs : unit -> int
(** The process-wide default worker count, used whenever [?procs] is
    omitted. Initialised from the [REVMAX_PROCS] environment variable (a
    positive integer; unset, empty or unparsable means [1]); overridable
    with {!set_default_procs}. *)

val set_default_procs : int -> unit
(** Override the default worker count. Values below 1 are clamped to 1. *)
