(** Append-only write-ahead journal of chase deltas.

    Between snapshots, every mutation the chase makes — a fact added, an
    EGD null merge, a round boundary — is appended here, so a crash
    loses at most the final torn record, never committed work.

    {2 On-disk format (version 1)}

    {v
    "MDQAJRNL"            magic, 8 bytes
    u32 version           = 1
    record*:
      u32 payload length
      u32 payload CRC-32
      payload:
        u8 tag            1 Fact | 2 Merge | 3 Round
        ...
    v}

    {2 Recovery semantics}

    {!read} {e never fails}: whatever is on disk, it returns the longest
    valid prefix of records plus an optional {!Binio.damage} locating
    the first byte that could not be trusted (torn tail after a crash,
    bit rot, a foreign file).  A missing or header-less journal
    reads as an empty one with a report.  Replaying a prefix of the
    journal over its snapshot always yields a well-formed instance — a
    prefix of the chase's own mutation sequence. *)

type record =
  | Fact of string * Mdqa_relational.Tuple.t
      (** a tuple the chase added to the named relation *)
  | Merge of { from_ : Mdqa_relational.Value.t; into : Mdqa_relational.Value.t }
      (** an EGD merge: every occurrence of [from_] was rewritten to
          [into] *)
  | Round of { merged : bool; stats : Mdqa_datalog.Chase.stats }
      (** a completed chase round.  The facts appended since the
          previous [Round] are exactly that round's semi-naive frontier;
          [merged] records whether an EGD merge invalidated it.  [stats]
          are cumulative, letting resume report true totals. *)

(** {1 Writing} *)

type writer

val create : path:string -> writer
(** Truncate/create the journal and write the header (fsynced).
    @raise Sys_error / Unix.Unix_error on I/O failure. *)

val append : writer -> record -> int
(** Append one record; returns its encoded size in bytes (frame
    included).  Data is flushed to the OS on every append; call {!sync}
    at durability points. *)

val sync : writer -> unit
(** fsync the journal file. *)

val close : writer -> unit
(** {!sync}, then close.  Idempotent. *)

(** {1 Recovery} *)

type read_result = {
  records : (int * record) list;
      (** the longest valid prefix, in order, each with the byte offset
          of its frame — so corruption found later (during replay) can
          still be located *)
  truncation : Binio.damage option;  (** [None]: the whole file was valid *)
  valid_bytes : int;  (** length of the trusted prefix *)
}

val read : path:string -> read_result
(** Total function: corruption of any shape (including a missing file)
    yields the valid prefix and a report, never an exception. *)

val layout : Binio.layout
(** The file header and frame headers, for {!Binio.walk}.  This module
    is the only one that knows the layout. *)
