(** Versioned, checksummed snapshots of a chase image.

    A snapshot is the durable base of a {!Store}: the full instance
    plus everything the chase needs to continue exactly where it
    stopped — the program source text, the chase variant, the fresh-null
    counter, cumulative statistics and the semi-naive frontier.

    {2 On-disk format (version 1)}

    {v
    "MDQASNAP"            magic, 8 bytes
    u32 version           = 1
    u32 section-count
    section*:
      u8  tag             'P' program | 'I' instance | 'C' chase state
      u32 payload length
      u32 payload CRC-32
      payload bytes
    v}

    Version 1 has exactly three sections, in the order [P], [I], [C].
    Every section is independently checksummed; a snapshot is accepted
    only if the magic, version, section count, every tag, length and
    CRC check out, no byte trails the last section, and every payload
    decodes — otherwise {!read} returns a located {!Binio.damage}
    (never raises).  This module is the only one that knows the
    layout: the online scrubber walks it through {!layout}.

    {2 Durability}

    {!write} is atomic and crash-safe: the image is written to
    [path ^ ".tmp"], fsynced, renamed over [path], and the directory is
    fsynced.  A crash at any point leaves either the old snapshot or
    the new one at [path], never a torn mixture; a stale [.tmp] from a
    crashed writer is ignored (and overwritten) by the next write. *)

type t = {
  program_text : string;
      (** the Datalog± source the image was chased under, so a store is
          self-contained: [mdqa resume] needs no program argument *)
  variant : Mdqa_datalog.Chase.variant;
  instance : Mdqa_relational.Instance.t;
  null_base : int;
      (** next fresh labeled-null id; at least one past every null ever
          invented, including nulls later merged away *)
  stats : Mdqa_datalog.Chase.stats;  (** cumulative across resumes *)
  frontier :
    (string * Mdqa_relational.Tuple.t list) list option;
      (** the semi-naive delta at the snapshot point: facts added by the
          last completed round.  [None] means the frontier is unknown
          (fresh image, or invalidated by an EGD merge) and the resumed
          chase must start with a full evaluation round. *)
}

val write : path:string -> t -> int
(** Atomic, fsynced write; returns the number of bytes in the image.
    @raise Sys_error / Unix.Unix_error on I/O failure. *)

val read : path:string -> (t, Binio.damage) result
(** Never raises: missing files, short reads, bad magic, unsupported
    versions, truncation and checksum mismatches all come back as
    [Error] with the first untrusted byte offset. *)

val layout : Binio.layout
(** The file header and section headers, for {!Binio.walk}. *)

(** {2 Raw images} — the replication ship path.  A snapshot travels the
    wire as its exact on-disk bytes, so the CRCs that protect it on disk
    protect it in flight, and an installed standby image is
    byte-identical to its primary's. *)

val encode : t -> string
(** The full on-disk image (header + checksummed sections) as a string. *)

val of_string : string -> (t, Binio.damage) result
(** Decode a raw image with exactly {!read}'s validation. *)

val write_raw : path:string -> string -> int
(** Install a pre-encoded image with {!write}'s atomic tmp/fsync/rename
    discipline.  The caller is expected to have validated it with
    {!of_string} first.
    @raise Sys_error / Unix.Unix_error on I/O failure. *)

val section_crcs : string -> ((char * int) list, Binio.damage) result
(** Per-section CRC-32s of a raw image, after {!of_string}'s section
    walk (framing and every CRC, no payload decode):
    [('P', crc); ('I', crc); ('C', crc)].  Divergence detection
    compares these across replicas at snapshot boundaries. *)

val fsync_dir : string -> unit
(** Make a just-performed rename/unlink in [dir] durable.  Failures are
    ignored (not every filesystem supports directory fsync). *)
