(** The online serving layer: a crash-safe, supervised event loop that
    turns the batch planner into a long-running recommendation service.

    {2 State machine}

    The server's planning state is a deterministic fold over the journaled
    event sequence, starting from the initial strategy (a full
    {!Revmax.Greedy} run at first boot):

    - [Adopt (u, i, t)] — the pair [(u, i)] is marked adopted, every
      planned [(u, i, _)] triple leaves the strategy, one unit of item
      [i]'s capacity is consumed for the rest of the horizon (whether or
      not the adopter was a planned recipient), over-subscribed holders
      are released exactly as in {!Revmax.Shard_greedy}'s reconciliation
      (lowest removal-loss first, ties to the lower user id) and each
      affected user is {e incrementally replanned} in place via
      [Greedy.plan_rows] over the user's own candidate row — selection
      restricted to the user's future ([t > now]) slots against the
      committed remainder of the strategy. The result is bit-identical
      to planning on a copy ([Greedy.run ~allowed ~base]): before each
      replan the server rebuilds exactly the chains such a copy would
      have rebuilt differently (DESIGN.md §12). Realized revenue
      [p(i, t)] is attributed, split into recommended vs organic
      adoptions.
    - [Click (u, i, t)] — attribution only (served→clicked→adopted
      pipeline counters); no planner state change.
    - [Cap (i, delta)] — external inventory adjustment: positive [delta]
      consumes stock (possibly forcing releases + replans as above),
      negative restores it; clamped so consumed stock stays in
      [0, capacity_i].
    - [Repair] — every user whose last replan was truncated by the
      per-event work cap is replanned without a cap, clearing the
      degraded flag.

    Replanning work per event is bounded by [replan_evals] (a
    deterministic {!Revmax_prelude.Budget} evaluation cap — wall-clock
    caps would make live execution and replay diverge): under overload
    the replan truncates to a valid prefix, answers are served with a
    [stale] flag, and the user queues for the next [Repair]. This is the
    degraded mode — the server never dies because planning fell behind.

    {2 Crash safety}

    Every state-changing event is appended to the {!Journal} {e before}
    it is applied (write-ahead); every [snapshot_every] events the full
    state is written via [Io.save_atomic] (fsynced) and the journal is
    rotated. Recovery = load snapshot (if any; otherwise re-derive the
    initial plan, which is deterministic) + replay journaled events with
    [seq >] snapshot seq. Both journal append and snapshot writes run
    under the {!Supervisor}: transient IO faults are retried with
    backoff, persistent ones degrade (events are refused with a typed
    error / snapshots are skipped until the next interval) — the loop
    continues. Applying an event, in contrast, is never retried: it is
    deterministic, and a failure there is a bug that must fail replay
    identically, so it is fatal by design (crash-only: the process dies,
    recovery replays, a deterministic failure surfaces to the operator).

    {2 Serving}

    Requests arrive as length-prefixed binary frames (see {!Wire}) over
    an arbitrary fd pair ({!serve}) or a Unix-domain socket accept loop
    ({!serve_unix}). SIGPIPE is ignored for the duration of the loop: a
    client vanishing mid-response surfaces as a typed
    [Err.Io_error]/[EPIPE], the connection is dropped, and the loop
    continues. *)

module Err = Revmax_prelude.Err

type config = {
  data_dir : string;  (** journal + snapshot directory; created if missing *)
  snapshot_every : int;  (** events between snapshots; 0 = only at boot/shutdown *)
  sync_every : int;  (** journal fsync batching (1 = every append) *)
  replan_evals : int option;  (** per-event replan evaluation cap; None = unbounded *)
  retry : Supervisor.policy;  (** IO supervision policy *)
  seed : int;  (** supervisor jitter seed *)
}

val default_config : data_dir:string -> config
(** [snapshot_every = 64], [sync_every = 1], unbounded replans,
    {!Supervisor.default_policy}, seed 0. *)

type t

val create : config -> Revmax.Instance.t -> t
(** Boot-or-recover: loads [data_dir]'s snapshot when present (raising
    [Err.Error (Parse_error _)], naming the line, if it is unreadable or
    does not describe a state of [inst]: ids out of range, [now] outside
    [0, T], consumed stock outside [0, capacity], a duplicate triple or a
    strategy that breaks a constraint — snapshots are written atomically
    and fsynced, so corruption is bitrot, not a crash artifact), plans
    the initial strategy otherwise, heals and replays the journal, and
    writes a fresh snapshot so later recoveries are cheap. *)

(** {1 State observation (tests, driver)} *)

val strategy : t -> Revmax.Strategy.t
(** The live strategy itself, not a copy: {!apply} mutates it in place,
    so a caller that needs the plan as of one event should
    [Strategy.copy] it. Mutating it from outside breaks the fold. *)

val seq : t -> int64
(** Events applied so far; event [n] (1-based) carries seq [n]. *)

val now : t -> int
(** Largest event time seen (replans only touch later slots). *)

val stale_users : t -> int list
(** Users whose last replan was truncated (sorted); non-empty = degraded. *)

val realized_revenue : t -> float

val organic_consumed : t -> int -> int
(** Capacity units of an item consumed outside the strategy (adoptions +
    external [Cap] events). *)

(** {1 Event application} *)

val apply : t -> Journal.event -> (int64, Err.t) result
(** Journal (write-ahead, supervised) then apply one event; returns the
    event's sequence number. [Error] means the event was refused — not
    journaled, not applied (degraded IO) — and can be retried by the
    client. May write a snapshot per [snapshot_every]. *)

val topk : t -> u:int -> time:int -> k:int -> (int * float) list * bool
(** The planned recommendations for user [u] at [time] (at most [k],
    highest expected marginal revenue first, ties by item id) and the
    stale flag — [true] when any user's replan is pending repair, so
    answers may be running on a degraded plan. *)

val save_snapshot : t -> (unit, Err.t) result
(** Force a snapshot + journal rotation (supervised). *)

val close : t -> unit
(** Final snapshot (best-effort) and journal close. *)

(** {1 Wire protocol} *)

module Wire : sig
  (** Length-prefixed binary frames: [u32 LE length | payload]. All
      integers little-endian. Shared by the server loop, the traffic
      driver and the CLI client. *)

  type request =
    | Topk of { u : int; time : int; k : int }
    | Event of Journal.event
    | Stats
    | Snapshot
    | Dump  (** full strategy, for identity checks *)
    | Shutdown

  type response =
    | Items of { stale : bool; items : (int * float) list }
    | Ack of { seq : int64; stale : bool }
    | Stats_r of { seq : int64; size : int; stale : bool; realized : float; now : int }
    | Dump_r of (int * int * int) list
    | Err_r of string

  val write_frame : Unix.file_descr -> Bytes.t -> unit
  val read_frame : Unix.file_descr -> Bytes.t option
  (** [None] on EOF (including EOF mid-frame) and on a claimed length
      outside [1 .. 16 MiB]. The payload buffer starts at no more than
      4 KiB and doubles as bytes arrive, never past twice the bytes
      received, so a header that claims more than follows allocates
      little. *)

  val encode_request : request -> Bytes.t
  val decode_request : Bytes.t -> (request, string) result
  val encode_response : response -> Bytes.t
  val decode_response : Bytes.t -> (response, string) result
end

(** {1 Serving loops} *)

val serve : t -> in_fd:Unix.file_descr -> out_fd:Unix.file_descr -> unit
(** Answer frames until EOF or [Shutdown]. Ignores SIGPIPE (restoring the
    previous disposition on exit); a write failure ends the loop with a
    logged typed error, never an unhandled signal. *)

val serve_unix : t -> path:string -> unit
(** Accept loop on a Unix-domain socket (the path is replaced if it
    exists): clients are served sequentially with {!serve}'s per-
    connection semantics; a client crashing mid-request drops only that
    connection. Returns after a [Shutdown] request. *)

val topk_of_strategy :
  Revmax.Instance.t -> Revmax.Strategy.t -> u:int -> time:int -> k:int -> (int * float) list
(** The pure scoring behind {!topk} (for reference checks): each of the
    user's [time] triples scored by price × its chain's cached adoption
    probability. *)
