(** Crash-safe checkpoint stores for the chase.

    A store makes a long chase durable: its state on disk is a
    {!Snapshot} (the base image) plus a {!Journal} (the deltas since),
    kept at [path] and [path ^ ".journal"].  Attach a store to
    [Chase.run ~checkpoint] and every run — saturated, degraded by a
    {!Mdqa_datalog.Guard} budget, killed by the OS — leaves a resumable
    image behind; {!resume} replays it and continues to the same
    fixpoint the uninterrupted run reaches.

    {2 Crash-safety invariants}

    - Snapshot writes are atomic (write-temp, fsync, rename, fsync
      directory): [path] always holds a complete old or complete new
      image, never a torn one.
    - The journal is append-only with per-record CRCs; {!load} replays
      the longest valid prefix and {e truncates} at the first torn or
      corrupt record instead of failing.
    - Compaction (snapshot rewrite, journal reset) orders the snapshot
      rename {e before} the journal truncation, so a crash between the
      two only leaves redundant journal records — replay is idempotent
      (re-adding a fact and re-applying a merge are no-ops).
    - Recovery never raises: every failure mode is a value
      ({!Snapshot.corruption}, {!Journal.truncation}, {!load_error}).

    Checkpoint I/O is accounted to the attached guard as
    [Guard.Checkpoint_bytes]. *)

type t
(** An open store being written by a chase. *)

val journal_path : string -> string
(** [journal_path path] is [path ^ ".journal"]. *)

val generation_path : string -> int -> string
(** [generation_path path k] is [path ^ "." ^ k]: the k-th previous
    committed snapshot image, 1 = newest. *)

val generations : path:string -> int
(** How many previous generations are on disk (consecutive from 1). *)

val rotate_generations : path:string -> keep:int -> unit
(** Rotate the committed image at [path] into the generation chain
    before a new one replaces it: [path.k-1] renames to [path.k] for
    k = keep..2, then [path] is hard-linked to [path.1] — so there is
    never an instant with zero complete snapshots on disk.  Best-effort
    (generations are redundancy): I/O failures are swallowed, and
    [keep = 0] disables rotation.  Called automatically by every
    snapshot write of an open store. *)

val create :
  ?guard:Mdqa_datalog.Guard.t ->
  ?compact_bytes:int ->
  ?keep_generations:int ->
  ?metrics:Mdqa_obs.Metrics.t ->
  path:string ->
  program_text:string ->
  variant:Mdqa_datalog.Chase.variant ->
  unit ->
  t
(** A store for a fresh chase.  Nothing is written until the chase
    calls the [on_start] hook (so a run that fails validation leaves no
    files).  When the journal grows past [compact_bytes] (default
    4 MiB) it is folded into a fresh snapshot at the next round
    boundary.  Every snapshot write first rotates the previous
    committed image into the generation chain ([path.1] ..
    [path.keep_generations], default 2; 0 disables) so a later
    corruption of the current image is never the loss of the only
    copy — {!Fsck.repair} salvages from the newest clean generation.

    When [metrics] is given, checkpoint count/bytes/duration/failures
    and journal frame/byte counters ([mdqa_store_*]) are recorded
    there; snapshot writes emit a [store.checkpoint] span when a tracer
    is installed. *)

val checkpoint : t -> Mdqa_datalog.Chase.checkpoint
(** The hooks to pass as [Chase.run ~checkpoint].  [on_fact]/[on_merge]
    append journal records (and may raise [Guard.Exhausted] when a
    checkpoint byte budget trips — degrading the run); [on_round] syncs
    the journal and compacts if due; [on_done] writes the final
    snapshot and resets the journal, swallowing I/O errors into
    {!write_error} so the chase result is never lost to a full disk. *)

val write_error : t -> exn option
(** The first exception swallowed while finalizing the store, if any:
    the in-memory result is good, but the on-disk image may be stale. *)

val clear_write_error : t -> unit
(** Forget a recorded write failure — a long-running server does this
    when its circuit breaker half-opens and a probe write succeeds. *)

val checkpoint_now :
  t ->
  instance:Mdqa_relational.Instance.t ->
  stats:Mdqa_datalog.Chase.stats ->
  (int, exn) result
(** One-shot atomic snapshot of a live instance, for services that
    checkpoint on their own cadence instead of per chase round (the
    [mdqa serve] circuit breaker wraps this).  On success the written
    byte count is returned and accounted to the guard; on I/O failure
    the error is returned {e and} recorded in {!write_error} — nothing
    raises except the attached guard's own [Guard.Exhausted].  The
    on-disk image is never torn: the write is temp + fsync + rename
    like every snapshot write. *)

val close : t -> unit
(** Close the journal fd.  Idempotent; called automatically by
    [on_done]. *)

(** {1 Recovery} *)

type recovery = {
  program_text : string;
  variant : Mdqa_datalog.Chase.variant;
  instance : Mdqa_relational.Instance.t;
      (** snapshot image + replayed journal prefix: a well-formed
          prefix of the interrupted chase *)
  frontier : (string * Mdqa_relational.Tuple.t) list option;
      (** semi-naive delta to seed the resumed chase; [None] forces a
          full (always sound) first round *)
  null_base : int;  (** safe lower bound for fresh null labels *)
  stats : Mdqa_datalog.Chase.stats;
      (** cumulative stats at the last durable round boundary, plus the
          EGD merges replayed after it *)
  replayed : int;  (** journal records applied *)
  journal_truncation : Journal.truncation option;
      (** where and why journal replay stopped early, if it did *)
}

type load_error =
  | No_store of string  (** no snapshot at the path *)
  | Corrupt_snapshot of Snapshot.corruption
  | Bad_program of { line : int; message : string }
      (** the stored program text no longer parses (version skew) —
          only possible for {!resume}, {!load} does not parse *)

val load : path:string -> (recovery, load_error) result
(** Read snapshot + journal and replay.  Total: corruption comes back
    as [Error] (snapshot) or as [journal_truncation] (journal — the
    valid prefix is still returned). *)

val load_from :
  snapshot:string -> journal:string -> (recovery, load_error) result
(** {!load} over an explicit file pair.  {!Fsck.repair} uses it to
    replay the journal's valid prefix over a {e previous generation}
    image when the current snapshot is corrupt; replay stops (with a
    [journal_truncation] report) at the first record the older image
    cannot absorb. *)

val resume :
  ?guard:Mdqa_datalog.Guard.t ->
  ?compact_bytes:int ->
  ?metrics:Mdqa_obs.Metrics.t ->
  path:string ->
  unit ->
  (Mdqa_datalog.Chase.result * recovery, load_error) result
(** {!load}, re-parse the stored program, compact the recovered image
    into a fresh snapshot (discarding any torn journal tail), and
    continue the chase — with checkpointing still on, so the resumed
    run is itself resumable.  Reaches the same saturated instance (same
    facts modulo the labels of nulls invented after the interruption)
    and the same outcome as an uninterrupted run. *)

(** {1 Replication shipping}

    A store replicates by shipping its exact on-disk bytes: the
    snapshot image travels whole (the section CRCs that protect it on
    disk validate it at the far end), the journal travels as raw byte
    slices appended verbatim to the standby's copy.  A standby
    therefore recovers a shipped stream with {e literally} the local
    crash-recovery code: torn tails truncate, replay is idempotent, and
    any clean prefix of the stream is a loadable store. *)

val path : t -> string
(** The snapshot path this store writes. *)

val read_image : path:string -> (string, string) result
(** The raw snapshot image at [path], for shipping.  [Error] for a
    missing or unreadable file; never raises. *)

val read_journal_slice :
  path:string -> offset:int -> len:int -> (string * int, string) result
(** Up to [len] raw journal bytes starting at [offset], plus the
    journal's current total length — the primary's high-water mark.  A
    missing journal reads as [("", 0)].  Never raises. *)

val install_stream :
  path:string -> snapshot:string -> journal:string -> (unit, string) result
(** Install a shipped stream as the local store: validate the snapshot
    image ({!Snapshot.of_string} — full CRC check), write it atomically,
    and replace the journal with the shipped bytes (which may be [""]:
    no journal).  A rejected image installs nothing. *)

val append_journal_bytes : path:string -> string -> (unit, string) result
(** Append raw shipped bytes to the local journal (fsynced).  Torn or
    partial frames are harmless: recovery truncates at the first
    invalid frame, exactly as after a local crash. *)

(** {1 Inspection}

    Integrity checking and repair live in {!Fsck}: [Fsck.check] is the
    report behind [mdqa store verify], [Fsck.repair] the salvage chain
    behind [mdqa store fsck --repair]. *)

val pp_load_error : Format.formatter -> load_error -> unit
