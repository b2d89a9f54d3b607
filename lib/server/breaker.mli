(** A circuit breaker for a fallible side effect (checkpoint I/O).

    The server keeps answering queries from its in-memory fixpoint
    even when the durability layer fails (full disk, read-only
    volume): after [threshold] consecutive failures the breaker trips
    {e open} and the protected operation is skipped — stale but
    consistent — until a cooldown elapses.  It then {e half-opens}:
    exactly one probe call is allowed through; success closes the
    breaker, failure re-opens it with a doubled (capped) cooldown.

    The clock is injected so tests drive every transition
    deterministically.  Not thread-safe; the server loop is
    single-threaded by design. *)

type state =
  | Closed  (** operations flow; failures are being counted *)
  | Open of { until : float }
      (** tripped: operations are skipped until the clock passes
          [until] *)
  | Half_open  (** cooldown elapsed: one probe is in flight *)

type t

val create :
  ?threshold:int ->
  ?cooldown:float ->
  ?cooldown_cap:float ->
  ?clock:(unit -> float) ->
  unit ->
  t
(** [threshold] consecutive failures trip the breaker (default 3);
    the first open lasts [cooldown] seconds (default 1.0), doubling on
    every re-open up to [cooldown_cap] (default 60.0).  [clock]
    defaults to {!Mdqa_obs.Clock.now}, the one non-decreasing clock. *)

val allow : t -> bool
(** Should the protected operation run now?  [Closed] and [Half_open]
    say yes; [Open] says no until the cooldown elapses, at which point
    the breaker half-opens and says yes exactly once — further [allow]
    calls during the probe say no. *)

val record_success : t -> unit
(** The protected operation succeeded: close the breaker, reset the
    failure count and the cooldown. *)

val record_failure : t -> unit
(** The protected operation failed.  In [Closed], counts toward
    [threshold]; reaching it trips the breaker.  In [Half_open], the
    probe failed: re-open with a doubled (capped) cooldown. *)

val trip : t -> unit
(** Open the breaker immediately on out-of-band evidence (the store
    scrubber finding corruption on disk), without waiting for
    [threshold] call failures.  Uses the current (possibly backed-off)
    cooldown; a no-op if already open. *)

val state : t -> state
val consecutive_failures : t -> int

val trips : t -> int
(** Times the breaker has opened since creation. *)

val retry_at : t -> float option
(** When an open breaker will next half-open (absolute clock time);
    [None] unless open. *)

val retry_in : t -> float option
(** Seconds until an open breaker half-opens, on the breaker's own
    clock and never negative; [None] unless open. *)

val state_name : t -> string
(** ["closed"], ["open"] or ["half-open"] — for health reports. *)
