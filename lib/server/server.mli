(** The [mdqa serve] event loop: fault-isolated, load-shedding,
    drain-capable.

    A single-threaded [select] loop owns a listening socket (Unix or
    TCP), reads line-delimited JSON requests ({!Protocol}) from any
    number of concurrent connections, and answers them from a warm
    {!Service}.  Every failure mode is contained:

    - a request that raises is answered with an E027 diagnostic and
      the loop continues — one poisoned query cannot take the server
      down;
    - requests beyond the admission queue's capacity are shed with an
      immediate [degraded:overload] (W047) reply — overload degrades
      latency for no one and never hangs;
    - a connection that dribbles bytes slower than the read deadline
      (slow-loris) is answered E026 and closed; one that exceeds the
      request size cap is answered E025 and closed;
    - SIGPIPE is ignored and reply writes are EINTR-safe and
      deadline-bounded, so a client vanishing mid-reply costs one
      connection, not the process;
    - SIGTERM/SIGINT starts a graceful drain: stop accepting, answer
      or degrade everything in flight within the grace period, write a
      final (breaker-bypassing) checkpoint, exit 0 — or 2 when
      anything had to be degraded on the way out.

    Every query runs under its own fork of the server guard, bounded by
    the request's own ["timeout"] or else [request_timeout]: a query
    that explodes degrades to its partial answer at the deadline and
    the loop moves on. *)

type addr =
  | Unix_path of string  (** a filesystem socket; removed on exit *)
  | Tcp of string * int  (** bind host, port *)

type config = {
  addr : addr;
  max_queue : int;  (** admission-queue capacity (default 64) *)
  max_clients : int;  (** concurrent connections (default 128) *)
  read_timeout : float;  (** seconds to finish sending a line (10.) *)
  write_timeout : float;  (** seconds to accept a reply (10.) *)
  max_request_bytes : int;  (** request line cap (1 MiB) *)
  request_timeout : float;
      (** per-request deadline, seconds, for a query that carries no
          ["timeout"] of its own (10.) *)
  request_max_steps : int option;  (** default per-request step budget *)
  drain_grace : float;  (** seconds to finish in-flight work on drain *)
  scrub_interval : float option;
      (** with [Some s], re-verify the store's on-disk CRCs from the
          event loop, one bounded step every [s] seconds
          ({!Mdqa_store.Scrub}).  A finding trips the checkpoint
          breaker immediately and schedules a one-shot
          {!Mdqa_store.Fsck.repair} for the next step; a standby
          repairs by re-syncing from its primary.  Progress and
          findings are exported as [mdqa_store_scrub_bytes_total] /
          [mdqa_store_scrub_errors_total], and the
          [mdqa_store_generation] gauge tracks the generation chain.
          [None] (default) = off *)
  scrub_budget : int;  (** bytes verified per scrub step (64 KiB) *)
}

val default_config : addr -> config

val run : ?follower:Replication.Follower.t -> config -> Service.t -> int
(** Serve until a drain signal, then shut down cleanly.  Returns the
    process exit code: [0] when every request was answered completely
    and the final checkpoint (if a store is attached) succeeded, [2]
    when something was degraded — queued requests expired at drain,
    the final checkpoint failed, or the server guard tripped.

    With [follower] the server runs as a hot standby: between select
    rounds it ticks the follower (heartbeat the primary, fetch and
    apply journal frames, resync on an epoch change), answers queries
    read-only with a W050 stale-read tag, refuses [repl.fetch] (E031)
    and never writes the store — its on-disk bytes stay byte-identical
    to the primary's.  A [promote] request, or [promote_after]
    consecutive missed heartbeats, promotes it: following stops, the
    periodic store check starts, and one forced checkpoint makes the
    new primary's authority durable (H055).

    Never raises out of the loop; setup errors (socket in use,
    permission) raise before serving starts. *)
