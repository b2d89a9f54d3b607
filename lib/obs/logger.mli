(** Leveled structured logger.

    One line per record on the configured output (stderr by default),
    either human-readable text or JSONL; both carry an ISO-8601 UTC
    timestamp, the level, the message, and flat key/value fields.
    Replaces ad-hoc [Printf.eprintf] in the server and CLI so stderr
    is machine-parseable end to end. *)

type level = Debug | Info | Warn | Error

type field = Str of string | Int of int | Float of float | Bool of bool

val set_level : level -> unit
val level : unit -> level
val level_of_string : string -> level option

val set_json : bool -> unit
(** [true] switches to JSONL records; default is the text format. *)

val set_output : (string -> unit) -> unit
(** Redirect formatted lines (newline not included); default writes to
    stderr and flushes.  Used by the tests to capture output. *)

val set_clock : (unit -> float) -> unit
(** Inject the wall clock (epoch seconds) for deterministic tests. *)

val log : level -> ?fields:(string * field) list -> string -> unit

val debug : ?fields:(string * field) list -> string -> unit
val info : ?fields:(string * field) list -> string -> unit
val warn : ?fields:(string * field) list -> string -> unit
val error : ?fields:(string * field) list -> string -> unit

val logf :
  level ->
  ?fields:(string * field) list ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Format-string convenience over [log]. *)
