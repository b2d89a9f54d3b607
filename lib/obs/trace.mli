(** Span-based tracer with a bounded in-memory ring buffer and Chrome
    trace-event JSON export, and the one timed scope of the code base.

    Instrumented code names each layer once, with [with_span].  A scope
    reads a clock once on entry and once on exit and hands that one
    duration to each installed sink: the tracer ([install]), which
    records an {!event}, and the {!Profile} profiler
    ({!Profile.install}), which adds one call and the duration to its
    phase of that name.  Both sinks are installed process-globally; with
    neither, a scope is two ref reads and a call.  A scope closes even
    when the wrapped function raises (via [Fun.protect]), so begin/end
    pairs are always well formed. *)

type t

type event = {
  name : string;
  ts : float;  (** seconds since the tracer's epoch *)
  dur : float;  (** seconds *)
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
(** Whether any sink is installed, a tracer or a profiler: the cheap
    hot-path check before building a scope's attributes. *)

val with_span :
  ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span ~attrs name f] runs [f] as one scope named [name].  With
    a tracer installed the scope reads the tracer's clock, and the
    profiler, if one is installed too, gets the same duration; with
    only a profiler installed it reads the profiler's clock.  Either
    way the clock is read exactly twice.  With no sink installed this
    is just a call to [f]. *)

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
