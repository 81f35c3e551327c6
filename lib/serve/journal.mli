(** Crash-safe write-ahead log of serving events.

    The journal is an append-only file of length-prefixed, CRC-guarded
    binary records; together with the atomic snapshots written by
    {!Server} it makes the serving state machine recoverable: state =
    snapshot ⊕ replay of every journaled event with a higher sequence
    number. Design invariants (DESIGN.md §12):

    - {b Write-ahead}: {!Server} journals an event before applying it, so
      an applied event is always recoverable.
    - {b Tear-proof appends}: a record is written with a single [write];
      if the write fails (injected IO fault, [ENOSPC]) the file is rolled
      back to the previous record boundary before the error propagates,
      so a retried append never leaves garbage between records.
    - {b Self-healing tail}: {!openw} scans the file, verifies each
      record's length sanity and CRC-32, and truncates everything from
      the first invalid byte — a tail torn by a crash mid-write, or a
      record corrupted by a flipped bit, is dropped (with a warning and a
      metrics count) rather than wedging recovery. Corruption is detected
      at the {e first} bad record; later records are dropped too, because
      record boundaries after a corrupt length prefix cannot be trusted.
    - {b Chained checksums}: a record's CRC runs on from the previous
      record's, so it validates only in the place it was appended: a
      duplicated record, or one copied elsewhere in the file, ends the
      valid prefix as a flipped bit does. Short of a CRC collision, a
      scan returns a prefix of the records appended since the journal
      was created or last rotated, whatever the damage.
    - {b Batched durability}: appends [fsync] every [sync_every] records
      (1 = every append); {!sync} forces the tail down. After a crash the
      journal is guaranteed to contain a prefix of the appended records —
      exactly the acked-and-fsynced ones when [sync_every = 1].

    Record wire format: [u32 LE payload length | u32 LE CRC | payload],
    payload = [u8 tag | i64 LE seq | tag-specific i32 LE fields]. The CRC
    is the running CRC-32 of every payload from the file's first record
    through this one ({!Revmax_prelude.Util.crc32_update} of the previous
    record's CRC, 0 for the first record). *)

type event =
  | Adopt of { u : int; i : int; t : int }
      (** User [u] adopted item [i] at time [t] — consumes one unit of
          the item's capacity and triggers replanning of [u]. *)
  | Click of { u : int; i : int; t : int }
      (** Attribution-only engagement signal; no planner state change. *)
  | Cap of { i : int; delta : int }
      (** External inventory adjustment: [delta > 0] consumes stock,
          [delta < 0] restores it. *)
  | Repair
      (** Operator/driver checkpoint: fully replan every user whose last
          replan was truncated by the per-event work cap. *)

val pp_event : Format.formatter -> event -> unit

type t

val openw : ?sync_every:int -> string -> t * (int64 * event) list
(** [openw path] opens (creating if missing) the journal for appending:
    scans existing records, self-heals the tail (see above), and returns
    the handle positioned after the last valid record together with the
    surviving [(seq, event)] records in file order. [sync_every] (default
    [1]) batches [fsync]: every [n]-th append syncs; [0] disables
    implicit syncs entirely (callers must {!sync}). *)

val append : t -> seq:int64 -> event -> unit
(** Append one record (tear-proof, see above) and count it toward the
    batched fsync. Chaos points: [journal.append] (before the write),
    [journal.mid_write] (between the two halves of the record — a crash
    here leaves a torn tail for {!openw} to heal), [journal.sync]. *)

val sync : t -> unit
(** Force buffered records to stable storage ([fsync]). *)

val pending : t -> int
(** Appends since the last fsync (for tests and monitoring). *)

val rotate : t -> unit
(** Truncate the journal to empty and [fsync] — called by {!Server} {e
    after} a snapshot covering every journaled event has been atomically
    written, so the dropped records are all redundant. A crash between
    snapshot and rotation is safe: recovery skips records whose seq is
    covered by the snapshot. *)

val size_bytes : t -> int
(** Current end-of-file offset. *)

val close : t -> unit

val events : string -> (int64 * event) list
(** Read-only scan of a journal file (same validation as {!openw}, but
    the file is not modified — a torn tail is ignored, not truncated).
    Returns [[]] when the file does not exist. *)
