(** Deterministic failpoints.

    A failpoint is a named site in the code ({!hit}) that normally does
    nothing and costs one ref read.  Arming it — programmatically or
    through the [MDQA_FAILPOINTS] environment variable — makes the site
    perform a scripted fault: crash the process, exit with a code, hang,
    delay, or raise.  Faults fire on exact hit numbers, so a chaos
    harness can script "the server's third query raises" instead of
    racing an external [kill] against request timing.

    Spec grammar (entries separated by [,]):
    {v
      spec    := entry ("," entry)*
      entry   := name "=" action trigger?
      action  := "crash"            abort the process with SIGABRT
               | "exit:" CODE       exit immediately with CODE
               | "hang:" SECS       sleep SECS
               | "delay:" MS        sleep MS milliseconds, then continue
               | "err"              raise Injected (in-process fault)
               | "off"              armed but inert (hits still counted)
      trigger := "@" N              fire only on the N-th hit (1-based)
               | "@" N "+"          fire on the N-th hit and after
    v}
    Example: [MDQA_FAILPOINTS=serve.request=err@3,store.checkpoint=err]

    Hit counters are per-process.  [mdqa serve] hits [serve.request]
    once per query it answers, inside the handler that turns an
    exception into an E027 reply. *)

type action =
  | Crash  (** SIGABRT to self: dies as a signal, like a real crash *)
  | Exit of int  (** immediate [Unix._exit] with the given code *)
  | Hang of float  (** sleep this many seconds *)
  | Delay of float  (** sleep this many seconds, then continue *)
  | Err  (** raise {!Injected} at the site *)
  | Off  (** count hits, inject nothing *)

type trigger =
  | Always
  | At of int  (** only the N-th hit, 1-based *)
  | From of int  (** the N-th hit and every one after *)

type entry = { action : action; trigger : trigger }

exception Injected of string
(** Raised at a site armed with [err]; the argument is the site name. *)

val parse_spec : string -> ((string * entry) list, string) result
(** Parse a full spec string.  [Error msg] names the first bad entry. *)

val arm : string -> entry -> unit
(** Arm (or re-arm) one site.  Hit counts survive re-arming. *)

val arm_spec : string -> (unit, string) result
(** Parse and arm a full spec string. *)

val arm_env : unit -> (unit, string) result
(** Arm from [MDQA_FAILPOINTS] if set; [Ok ()] when unset. *)

val disarm_all : unit -> unit
(** Disarm every site and forget all hit counts. *)

val attach_metrics : Metrics.t -> unit
(** Mirror hit counts into [mdqa_failpoint_hits_total{name=...}] in the
    given registry: existing counts are backfilled, later hits increment
    directly.  At most one registry is attached at a time. *)

val hit : string -> unit
(** The instrumented site.  A no-op (one ref read) while nothing is
    armed; when [name] is armed the hit is counted and the scripted
    action fires if its trigger matches. *)

val hits : unit -> (string * int) list
(** Hit counts of every armed site, sorted by name. *)
