(** Minimal JSON values: the one codec for every JSON the system emits
    or reads.

    The [mdqa serve] wire format (one JSON object per line), the
    profile, trace, log, check and fsck reports are all values of {!t}
    printed by {!to_string}.  No external dependency, total parsing
    (malformed input is an [Error], never an exception), and printing
    that never emits a newline (so one value always stays one frame). *)

type t =
  | Null
  | Bool of bool
  | Num of float
      (** printed as an integer when integral (below 1e15) *)
  | Float of float
      (** printed always with a fraction or an exponent ([0.0], not
          [0]); reads back as [Num] *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value.  Trailing non-whitespace, unterminated
    strings, bad escapes, deep nesting (beyond 512 levels) and every
    other malformation come back as [Error msg]. *)

val to_string : t -> string
(** Compact one-line rendering (no newlines, strings escaped, a
    non-finite number as [null]). *)

val to_buffer : Buffer.t -> t -> unit
(** {!to_string}'s rendering, appended to a buffer. *)

(** {1 Accessors} — total, [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] otherwise. *)

val to_str : t -> string option
val to_num : t -> float option
val to_bool : t -> bool option
val to_list : t -> t list option

val str_field : string -> t -> string option
val num_field : string -> t -> float option
