(** Corruption triage and the salvage chain for {!Store} files.

    A store's on-disk state is a snapshot, an append-only journal, and
    (since generational snapshots) a chain of previous committed images
    [path.1], [path.2], ...  [check] walks all of them and classifies
    what it finds; [repair] executes the salvage chain:

    + current snapshot + the longest clean journal prefix (folds the
      recovered records into a fresh snapshot, drops the damaged
      suffix);
    + the newest clean previous generation + journal replay (replay is
      idempotent and stops at the first record the older image cannot
      absorb);
    + a re-sync from a live peer, when the caller supplies one (the CLI
      wires [--from HOST:PORT] to the replication ship API).

    [check] does not read bytes or reasons of its own: the kind and
    offset of each damage are what the readers report — {!Snapshot.read}
    and {!Journal.read} (one decoder per file format) and {!Store.load}'s
    replay ([Inapplicable]) — and the online {!Scrub} walks the same
    decoders, so a fault has one kind and one offset wherever it is
    found.  The offset is the first untrusted byte.

    Repair never destroys evidence: every damaged original is preserved
    under [<path>.d/quarantine/] (numbered, never overwritten).  The
    local stages commit new data (tmp + fsync + rename) before any old
    file leaves its path (the damaged snapshot survives the rename via
    a hard link into quarantine) — a crash at any point mid-repair
    leaves a store no worse than the one repair started from.  The peer
    re-sync stage must move the damaged files aside before the ship
    installs; when the sync then fails they are moved straight back, so
    a store that no stage can save is reported [Unrepairable] with
    [E032] and keeps its original bytes; repair never invents data. *)

type damage_kind = Binio.damage_kind =
  | Bad_header
  | Torn_tail
  | Crc_mismatch
  | Inapplicable
  | Unreadable
  | Bad_program
(** The readers' own kinds ({!Binio.damage_kind}): {!Snapshot.read},
    {!Journal.read} and {!Store.load}'s replay classify what they find,
    and [check] copies it. *)

type damage = {
  file : string;
  kind : damage_kind;
  offset : int;  (** first untrusted byte *)
  reason : string;
}

type status =
  | Clean
  | Salvageable  (** damaged, but a local salvage stage applies *)
  | Unrepairable
      (** no clean snapshot and no clean generation — only a peer
          re-sync can help *)

type report = {
  path : string;
  status : status;
  damage : damage list;
  generations : int;  (** previous generations present on disk *)
  plan : string option;
      (** the salvage stage [repair] would use (or used) *)
  repaired : bool;  (** [repair] ran its chain and re-verified clean *)
  quarantined : string list;  (** where damaged originals were moved *)
  diags : Mdqa_datalog.Diag.t list;
      (** located diagnostics: E023/E032 errors, W046/W051/W052
          warnings, H052/H056 hints *)
  infos : string list;  (** human-readable store summary / action log *)
}

val check : path:string -> report
(** Classify without writing anything.  Statuses align with
    {!Mdqa_datalog.Diag.exit_code}: [Clean] carries hints at most,
    [Salvageable] warnings, [Unrepairable] errors. *)

val repair :
  ?resync:(unit -> (unit, string) result) -> path:string -> unit -> report
(** Run the salvage chain and rewrite the store.  Idempotent: repairing
    a clean store is a no-op, and repairing twice changes nothing the
    second time.  [resync] is stage 3 — called only after the local
    stages are exhausted {e and} the damaged originals are quarantined,
    it must leave a fresh installable store at [path] (e.g. via
    {!Store.install_stream}); if it fails, the quarantined originals
    are restored to their paths (except any a partial install already
    replaced, which stay in quarantine).  Never raises: unexpected I/O
    failures come back as an [Unrepairable] report with [E032]. *)

val exit_code : report -> int
(** The verify/fsck CLI contract: [Clean] 0, [Salvageable] 2,
    [Unrepairable] 1. *)

val quarantine_dir : string -> string
(** [quarantine_dir path] is [path ^ ".d/quarantine"]. *)

val kind_name : damage_kind -> string
(** ["torn-tail"], ["crc-mismatch"], ... *)

val status_name : status -> string

val to_json : report -> Mdqa_obs.Jsonl.t
(** One JSON object: path, status, repaired, generations, plan, damage,
    quarantined files, info lines, and the diagnostics as the same
    ["report"] object [mdqa check --json] emits. *)

val print_text : report -> unit
(** Human-readable rendering to stdout: info lines, one diagnostic per
    line ({!Mdqa_datalog.Diag.pp}), the salvage plan, and a status
    summary line. *)
