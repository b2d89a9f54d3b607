(** Span-based tracer with a bounded in-memory ring buffer and Chrome
    trace-event JSON export.

    A tracer is installed process-globally ([install]); instrumented
    code calls [with_span] (or the manual [span_begin]/[span_end] pair
    on hot paths) and pays only a ref read when no tracer is installed.
    [with_span] closes its span even when the wrapped function raises
    (via [Fun.protect]), so begin/end pairs are always well formed. *)

type t

type span
(** An open span, returned by [span_begin] and consumed by [span_end]. *)

type event = {
  name : string;
  ts : float;  (** seconds since the tracer's epoch *)
  dur : float;  (** seconds; [0.] for instants *)
  depth : int;  (** nesting depth at emission, >= 1 for spans *)
  attrs : (string * string) list;
}

val create : ?capacity:int -> ?clock:(unit -> float) -> unit -> t
(** [capacity] bounds the ring buffer (default 65536 events; older
    events are dropped and counted).  [clock] defaults to
    {!Clock.now}. *)

val install : t -> unit
val uninstall : unit -> unit

val installed : unit -> t option

val active : unit -> bool
(** [active () = (installed () <> None)] — cheap hot-path check. *)

val with_span :
  ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the function under a span on the installed tracer; with no
    tracer installed this is just a call to the function. *)

val span_begin : t -> ?attrs:(string * string) list -> string -> span
val span_end : t -> ?attrs:(string * string) list -> span -> unit
(** Manual pair for hot loops where a closure per iteration would
    show up in profiles.  Extra [attrs] given at [span_end] are
    appended to the ones from [span_begin]. *)

val instant : ?attrs:(string * string) list -> string -> unit
(** Zero-duration marker event on the installed tracer (no-op when
    none is installed). *)

val events : t -> event list
(** Buffered events, oldest first. *)

val dropped : t -> int
(** Events evicted from the ring so far. *)

val depth : t -> int
(** Current open-span nesting depth (0 when all spans are closed). *)

val clear : t -> unit

val export_json : t -> Jsonl.t
(** Chrome trace-event JSON ([{"traceEvents":[...]}], `ph:"X"`
    complete events, timestamps in microseconds) — loadable by
    chrome://tracing and Perfetto. *)

val export_file : t -> string -> unit
(** [export_file t path] writes [export_json t] to [path], one line. *)
