(** One forked query worker and its wire format.

    A worker is a fork of the warmed-up server process: it shares the
    materialized chase fixpoint copy-on-write, blocks on its half of a
    socketpair for length-prefixed request lines, answers each with
    the same code path the inline server uses, and ships the finished
    reply line back in a small JSON envelope.  Process boundaries are
    the fault-isolation contract: a segfault, a runaway allocation or
    an injected crash costs one worker and one E029 reply, never the
    accept loop.

    Children never checkpoint (the parent owns the store file) and
    exit with [Unix._exit] only — a forked child running [at_exit]
    handlers or flushing inherited buffers corrupts the parent's
    output. Exit status 0 means voluntary retirement (recycling, or
    EOF on the pipe at drain); anything else is a crash. *)

(** u32 little-endian length prefix + payload. *)
module Frame : sig
  val encode : string -> string

  type reader
  (** Parent-side accumulator for a nonblocking fd. *)

  val reader : unit -> reader

  val poll :
    reader ->
    Unix.file_descr ->
    [ `Frames of string list  (** complete payloads, in arrival order *)
    | `Nothing
    | `Eof
    | `Error of string ]

  val read_blocking : Unix.file_descr -> string option
  (** Child side: block for one whole frame; [None] on EOF or a torn
      stream (the parent is gone either way). *)
end

type defaults = { timeout : float option; max_steps : int option }
(** Server-config fallbacks applied when a query request carries no
    budget of its own. *)

val answer_query :
  svc:Service.t -> defaults:defaults -> ?stale:bool -> Protocol.request ->
  string * string * string option
(** [(reply_line, status, diag_code)] for a query request — the single
    code path behind both the inline (workers = 0) branch and the
    worker child, so replies are byte-identical either way.  Non-query
    requests (which the dispatcher never forwards) get an E024.
    [~stale:true] (a standby answering while it follows) tags complete
    replies with a W050 stale-read warning. *)

type recycle = { max_requests : int; max_heap_mb : float }
(** Retirement thresholds; [0] / [0.] disables the respective check. *)

val should_retire : served:int -> heap_mb:float -> recycle -> bool

val heap_mb : unit -> float
(** Current major-heap size of this process, in MiB. *)

type parsed_reply = {
  line : string;  (** the finished reply line, written verbatim *)
  status : string;
  code : string option;
  fp : (string * int) list;
      (** child's cumulative failpoint hit counters *)
}

val envelope : line:string -> status:string -> code:string option -> string
val parse_envelope : string -> (parsed_reply, string) result

type t = { pid : int; fd : Unix.file_descr; reader : Frame.reader }

val spawn :
  svc:Service.t ->
  defaults:defaults ->
  recycle:recycle ->
  on_child:(unit -> unit) ->
  unit ->
  t
(** Fork one worker.  [on_child] runs first in the child and must
    close every fd the worker has no business holding (listener,
    client conns, self-pipe, sibling worker ends); then signal
    dispositions reset and the child enters its read-answer loop,
    which only calls {!Service.query}: the parent alone writes the
    store.  The returned parent end is nonblocking. *)

val dispatch :
  t -> write_deadline:float -> string -> (unit, string) result
(** Frame and send one raw request line to the worker.  [Error] means
    the pipe is broken or the write timed out — the caller should kill
    and replace the worker. *)

val poll :
  t -> [ `Frames of string list | `Nothing | `Eof | `Error of string ]
(** Drain readable reply frames from the parent end. *)

val close : t -> unit

type exit_class =
  | Recycled  (** WEXITED 0: voluntary retirement, not a failure *)
  | Crashed of string  (** cause, e.g. ["SIGSEGV"] or ["exit 125"] *)

val classify : Unix.process_status -> exit_class

val signal_name : int -> string
