(** Binary encoding substrate for the durability layer.

    Little-endian, length-prefixed, fully 8-bit-clean: strings are
    written as raw bytes behind a length, so values containing commas,
    quotes, newlines or NULs — the bytes that break textual formats —
    round-trip exactly.

    Decoding never trusts the input: every read is bounds-checked and
    malformed data raises {!Corrupt} with the offending byte offset,
    which {!Snapshot} and {!Journal} turn into a located {!damage}.  No
    decoder in this module reads past the slice it was given.

    Both store files are {e framed}: a fixed-size file header, then
    frames of a fixed-size frame header (payload length and CRC-32)
    and a payload.  Each format module describes its own header and
    frame header as a {!layout}; the one {!walk} here checks the
    framing and every CRC of either file, whether it is handed the
    whole file ({!walk_string}) or bounded reads of an open fd (the
    online scrubber). *)

exception Corrupt of { offset : int; reason : string }
(** Raised by readers on malformed input.  Always caught at the
    {!Snapshot}/{!Journal} boundary — it never escapes to callers of
    the store API. *)

(** {1 Damage} — what every reader of a store file reports. *)

type damage_kind =
  | Bad_header
      (** the magic, version, section count or a section tag is wrong,
          or bytes trail the last section *)
  | Torn_tail  (** the file ends mid-structure — the crash signature *)
  | Crc_mismatch
      (** framing intact, but a payload fails its CRC, or passes it and
          still does not decode *)
  | Inapplicable
      (** a well-formed journal record its base image cannot absorb
          (foreign predicate or arity) — version or epoch skew *)
  | Unreadable  (** the file cannot be opened or read at all *)
  | Bad_program
      (** the image decodes but its stored program text no longer
          parses — a writer bug, not bit rot (the section CRCs are
          intact); the image cannot drive a resume *)

type damage = {
  offset : int;
      (** first untrusted byte: the start of the damaged header field,
          of the frame that is torn or fails its CRC, or of the
          trailing bytes *)
  kind : damage_kind;
  reason : string;
}

val kind_name : damage_kind -> string
(** ["torn-tail"], ["crc-mismatch"], ... *)

val pp_damage : Format.formatter -> damage -> unit
(** ["byte 98 (crc-mismatch): section 'I' checksum mismatch"]. *)

(** {1 Writing} *)

val u8 : Buffer.t -> int -> unit
val u32 : Buffer.t -> int -> unit
(** @raise Invalid_argument outside [\[0, 0xFFFF_FFFF\]]. *)

val i64 : Buffer.t -> int -> unit
(** Full OCaml [int], sign-extended to 8 bytes. *)

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

(** {1 File input} *)

val read_file : string -> (string, damage) result
(** The whole file at a path.  Never raises: a file that cannot be
    opened or read, or that shrinks mid-read, is [Unreadable] at
    offset 0. *)

val pread : Unix.file_descr -> bytes -> off:int -> len:int -> int
(** Read up to [len] bytes at file offset [off] into the start of the
    buffer, resuming after short reads and [EINTR]; fewer than [len]
    only at end of file.
    @raise Unix.Unix_error on any other read failure. *)

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
val read_str : reader -> string

val read_value : reader -> Mdqa_relational.Value.t
val read_tuple : reader -> Mdqa_relational.Tuple.t
val read_instance : reader -> Mdqa_relational.Instance.t

(** {1 Framed files} *)

type layout = {
  header_len : int;
  header : string -> (int option, damage) result;
      (** decode the [header_len]-byte file header: [Some n] when
          exactly [n] frames follow and nothing after them, [None] when
          frames run to the end of the file *)
  frame_len : int;
  frame : at:int -> index:int -> string -> (int * int, damage) result;
      (** decode the [frame_len]-byte header of frame [index], found at
          byte [at]: its payload length and expected CRC *)
  name : int -> string;
      (** frame [index] in reasons: ["section 'I'"], ["record"] *)
}

val file_header :
  magic:string -> version:int -> what:string -> string -> (unit, damage) result
(** Check the [magic] and the u32 [version] after it that start both
    store files; [what] names the format in reasons. *)

val get_u32 : string -> int -> int
(** The little-endian u32 at a position; the caller checks bounds. *)

type frame = {
  index : int;
  at : int;  (** the frame header's first byte *)
  body : int;  (** the payload's first byte *)
  len : int;
  crc : int;
}

type walk
(** A resumable walk over one file: its header, then each frame header
    and payload, checking every CRC. *)

type event =
  | More  (** bytes consumed; nothing to report yet *)
  | Verified of frame  (** a frame whose payload matches its CRC *)
  | Damaged of damage  (** the walk is over *)
  | Finished  (** the walk is over; the file is clean *)

val walk : layout -> walk

val offset : walk -> int
(** The file offset the next {!feed} starts at. *)

val want : walk -> int * int
(** [(least, most)] bytes the next {!feed} takes: a header is fed
    whole, a payload in pieces of any size. *)

val feed : walk -> bytes -> pos:int -> len:int -> event
(** Feed [len] bytes of the buffer from [pos], read at {!offset}.
    Fewer than the [least] of {!want} means the file ends there. *)

val decode_frame :
  layout -> string -> frame -> (reader -> 'a) -> ('a, damage) result
(** Decode a verified frame's payload out of the whole file image; a
    payload that does not decode, or leaves bytes over, is
    [Crc_mismatch] damage at the frame. *)

val walk_string :
  layout -> string -> on_frame:(frame -> (unit, damage) result) ->
  (unit, damage) result
(** The walk over a whole file image; [on_frame] sees each verified
    frame in order and may stop the walk with damage of its own. *)
