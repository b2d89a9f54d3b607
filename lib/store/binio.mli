(** Binary encoding substrate for the durability layer.

    Little-endian, length-prefixed, fully 8-bit-clean: strings are
    written as raw bytes behind a length, so values containing commas,
    quotes, newlines or NULs — the bytes that break textual formats —
    round-trip exactly.

    Decoding never trusts the input: every read is bounds-checked and
    malformed data raises {!Corrupt} with the offending byte offset,
    which {!Snapshot} and {!Journal} convert into located corruption
    reports.  No decoder in this module reads past the slice it was
    given. *)

exception Corrupt of { offset : int; reason : string }
(** Raised by readers on malformed input.  Always caught at the
    {!Snapshot}/{!Journal} boundary — it never escapes to callers of
    the store API. *)

(** {1 Writing} *)

val u8 : Buffer.t -> int -> unit
val u32 : Buffer.t -> int -> unit
(** @raise Invalid_argument outside [\[0, 0xFFFF_FFFF\]]. *)

val i64 : Buffer.t -> int -> unit
(** Full OCaml [int], sign-extended to 8 bytes. *)

val f64 : Buffer.t -> float -> unit
val str : Buffer.t -> string -> unit
(** [u32] byte length, then the raw bytes. *)

val value : Buffer.t -> Mdqa_relational.Value.t -> unit
val tuple : Buffer.t -> Mdqa_relational.Tuple.t -> unit
val schema : Buffer.t -> Mdqa_relational.Rel_schema.t -> unit
val relation : Buffer.t -> Mdqa_relational.Relation.t -> unit
val instance : Buffer.t -> Mdqa_relational.Instance.t -> unit

(** {1 File output} *)

val write_all : Unix.file_descr -> string -> unit
(** Every byte, resuming after partial writes and [EINTR]: a signal
    mid-write (server drain, harness SIGCHLD) must not tear an image or
    a journal record. *)

val fsync_retry : Unix.file_descr -> unit
(** [Unix.fsync], retried on [EINTR]. *)

(** {1 Reading} *)

type reader
(** A cursor over an immutable byte slice. *)

val reader : ?offset:int -> string -> reader
(** [reader ~offset s] reads [s]; [offset] (default 0) is added to
    reported offsets so errors locate bytes in the enclosing file, not
    the slice. *)

val pos : reader -> int
(** Position within the slice (excluding the reporting offset). *)

val at_end : reader -> bool

val read_u8 : reader -> int
val read_u32 : reader -> int
val read_i64 : reader -> int
val read_f64 : reader -> float
val read_str : reader -> string

val read_value : reader -> Mdqa_relational.Value.t
val read_tuple : reader -> Mdqa_relational.Tuple.t
val read_schema : reader -> Mdqa_relational.Rel_schema.t
val read_relation : reader -> Mdqa_relational.Relation.t
val read_instance : reader -> Mdqa_relational.Instance.t
