(** The worker-pool supervisor.

    Owns N {!Worker} slots on behalf of the select-loop parent:
    dispatches query lines to ready workers, reads reply frames back,
    reaps dead children, classifies their exits (voluntary recycling
    vs crash), restarts crashed workers under a full-jitter capped
    backoff that resets after a healthy uptime, SIGKILLs workers that
    exceed the per-request hang watchdog (the client gets a W049
    degraded reply immediately), and answers E029 to exactly the
    client whose request died with its worker.

    The supervisor performs no I/O of its own except through the
    worker fds and the injectable {!hooks}, so the whole state machine
    is property-testable in-process with fake clocks, scripted reaps
    and spawn functions that return socketpairs instead of forking.

    Invariant the tests hold it to: each dispatched request is
    answered {e exactly once} — by the worker's reply, by the
    watchdog, by an E029 at the worker's death, or by
    {!abort_inflight} at the drain deadline, whichever comes first. *)

type hooks = {
  clock : unit -> float;  (** monotonic seconds *)
  kill : int -> unit;  (** SIGKILL this pid *)
  wait_any : unit -> (int * Unix.process_status) option;
      (** one nonblocking reap of any child *)
  wait_pid : int -> (int * Unix.process_status) option;
      (** one nonblocking reap of a specific pid *)
  rand : float -> float;  (** jitter source, as [Random.float] *)
}

(** {1 Pure policy helpers} *)

val next_attempts : healthy_after:float -> uptime:float -> attempts:int -> int
(** Consecutive-crash count after one more crash: resets to 1 when the
    worker had stayed up at least [healthy_after] seconds. *)

val restart_delay :
  Backoff.policy -> rand:(float -> float) -> attempts:int -> float
(** Jittered restart delay for a worker whose consecutive-crash count
    is [attempts] (>= 1): full-jitter exponential, clamped to the
    policy cap. *)

(** {1 The pool} *)

type t

type reply_fn = status:string -> code:string option -> string -> unit
(** How a finished reply line reaches the client: the server closes
    over the connection and its accounting. *)

val start :
  ?hooks:hooks ->
  ?metrics:Mdqa_obs.Metrics.t ->
  ?policy:Backoff.policy ->
  ?healthy_after:float ->
  ?watchdog:float ->
  ?min_ready:int ->
  count:int ->
  spawn:(on_child:(unit -> unit) -> Worker.t) ->
  on_child:(unit -> unit) ->
  unit ->
  t
(** Bring up [count] workers.  [spawn] is called once per (re)spawn
    with an [on_child] that must run first in the child — it closes
    sibling worker fds, then the caller's [on_child] (listener, client
    conns, self-pipe).  [watchdog] is the per-request hang deadline in
    seconds (none = hung workers are only caught by client timeouts);
    [healthy_after] (default 5 s) is the uptime that resets crash
    backoff; [policy] defaults to {!Backoff.default_policy}. *)

val dispatch :
  t ->
  line:string ->
  req_id:Jsonl.t option ->
  write_deadline:float ->
  reply:reply_fn ->
  bool
(** Hand one raw query line to a ready worker.  [false] when no worker
    is ready (the caller leaves the request queued).  A worker whose
    pipe refuses the write is killed and the next ready one tried. *)

val handle_readable : t -> Unix.file_descr -> unit
(** Drain one worker fd the select loop reported readable: complete
    reply frames answer their clients, EOF triggers a targeted reap. *)

val reap : t -> int
(** Nonblocking [wait_any] loop, processing each reaped child: E029 to
    its client if it died mid-request, exit classification, backoff
    bookkeeping, cooldown scheduling.  Returns how many slots were
    resolved.  Call on every loop iteration — SIGCHLD
    only wakes the select, this does the work. *)

val tick : t -> unit
(** Time-driven duties: fire the hang watchdog on overdue requests
    (W049 + SIGKILL) and respawn slots whose cooldown has passed. *)

val next_wakeup : t -> float option
(** Earliest clock time {!tick} has something scheduled (cooldown
    expiry or watchdog deadline); the select timeout should not sleep
    past it. *)

val abort_inflight : t -> code:string -> reason:string -> message:string -> int
(** Degraded-reply every unanswered in-flight request (drain deadline).
    Returns how many were aborted. *)

val shutdown : t -> grace:float -> unit
(** Close every worker pipe (idle workers EOF-exit voluntarily), reap
    for up to [grace] seconds, then SIGKILL stragglers. *)

(** {1 Introspection} *)

val count : t -> int
val alive : t -> int
val ready : t -> int
val busy : t -> int

val inflight : t -> int
(** Dispatched requests not yet answered by anything. *)

val min_ready : t -> int

val quorum : t -> bool
(** [alive >= min_ready]: below it the server sheds queries with H054
    instead of queueing into a dead pool. *)

val fds : t -> Unix.file_descr list
(** Worker fds to include in the select read set. *)

val restarts : t -> int
val recycles : t -> int
val watchdog_kills : t -> int

val record_metrics : t -> Mdqa_obs.Metrics.t -> unit
(** Scrape-time gauges ([mdqa_server_workers_*]) and counter family
    registration. *)

val health_fields : t -> (string * Jsonl.t) list
(** The ["workers"] object of a health reply. *)
