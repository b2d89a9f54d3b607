(** Retrying client for the [mdqa serve] protocol, with multi-endpoint
    failover.

    Transient failures — the server restarting (connection refused, a
    vanished socket file), a torn connection, a [degraded:overload]
    shed, and for idempotent requests an E029 (worker crash) or H054
    (worker pool below min-ready) reply — are retried under a
    {!Backoff} policy: exponential backoff with full jitter, bounded by
    both an attempt count and a cumulative-sleep budget.  Everything
    else (an error reply, garbage on the wire, budget exhausted) comes
    back as a value; a budget that runs out on a retryable reply hands
    back that last reply.  Never raises on I/O.

    Connect-stage failures are classified by errno.  The dead-endpoint
    signature (ECONNREFUSED, EHOSTUNREACH, ENETUNREACH, ENOENT,
    ETIMEDOUT) happens before a single request byte is sent, so the
    retry is safe even for non-idempotent requests — and when the
    client was given several endpoints, it rotates to the next one
    before retrying.  That is the whole failover story: point a client
    at ["primary,standby"] and a SIGKILL'd primary turns into one
    connection-refused miss, a rotation, and the reply coming from the
    standby. *)

type t

val create :
  ?policy:Backoff.policy ->
  ?rand:(float -> float) ->
  addr:string ->
  unit ->
  t
(** [addr] is one endpoint or a comma-separated failover list tried in
    order, each one as {!connect} reads it.  No connection is made
    until the first {!roundtrip}. *)

val connect : string -> Unix.file_descr
(** Connect once, without retries, to one endpoint: a Unix socket path,
    or [host:port] when the suffix after the last [:] parses as a port
    and the string contains no [/].  {!create}'s endpoints follow the
    same rule.
    @raise Unix.Unix_error when the connection fails, [Not_found] for
    an unknown host. *)

val roundtrip :
  ?idempotent:bool -> t -> string -> (Protocol.reply, string) result
(** Send one request line (newline appended) and read one reply line,
    (re)connecting and retrying transient failures under the policy.
    [Ok] is any parsed reply that is not retryable — including
    [status = "error"] replies, which are the server speaking, not a
    transport failure — or the last retryable reply when the retry
    budget ran out on it.  [Error] means the retry budget ran out on a
    transport failure or the server answered with something
    unparseable.

    [idempotent] (default [true]: every request in the protocol is a
    read) additionally allows transparent re-sends when the reply was
    lost mid-read (ECONNRESET / EOF) or the server answered E029 (the
    request died with its worker — a fresh worker will answer) or H054
    (too few live workers — the supervisor is restarting them).  With
    [~idempotent:false] a lost reply is a permanent error, since the
    request may already have executed. *)

val should_retry_reply :
  idempotent:bool -> Protocol.reply -> string option
(** The reply-classification half of the retry decision, exposed pure
    for tests: [Some reason] when a parsed reply should be retried
    (overload shed always; E029 and H054 only when idempotent). *)

val ping : t -> (Protocol.reply, string) result
(** [roundtrip {"kind":"ping"}] — readiness probing. *)

val retries : t -> int
(** Total retries taken over the life of this client. *)

val rotations : t -> int
(** Failovers taken: how often a dead-endpoint connect failure rotated
    the client to the next endpoint. *)

val current_addr : t -> string
(** The endpoint the next connection attempt will target. *)

val endpoints : t -> string list
(** All configured endpoints, in failover order. *)

val close : t -> unit
(** Drop the connection (idempotent); the next roundtrip reconnects. *)
