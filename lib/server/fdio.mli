(** Signal-safe, deadline-bounded socket I/O.

    Every syscall a long-running server makes must survive two things
    the one-shot CLI never sees: EINTR (a drain signal landing
    mid-call) and EPIPE/ECONNRESET (a client disconnecting
    mid-reply).  These helpers retry the former and surface the latter
    as values, so neither can kill the accept loop or tear a reply.

    All deadlines are absolute times on [Guard.Clock] — the process's
    monotonic clock — never wall time, so an NTP step cannot expire a
    write early or stall a select. *)

val ignore_sigpipe : unit -> unit
(** Install [Signal_ignore] for SIGPIPE (idempotent).  Without it a
    client closing its socket mid-reply kills the whole process;
    with it the write fails with [EPIPE], which {!write_all} reports
    as a value. *)

val select_read :
  Unix.file_descr list ->
  timeout:float ->
  (Unix.file_descr list, Unix.error) result
(** [select] on read fds that survives EINTR: retried with the timeout
    recomputed against the original monotonic deadline, so a signal
    cannot spin the event loop or surface [EINTR] to it.  [Ok []] on
    timeout. *)

val write_all :
  ?deadline:float -> Unix.file_descr -> string -> (unit, string) result
(** Write the whole string: short writes resume, EINTR retries,
    EAGAIN waits (via [select]) until [deadline] (absolute
    [Guard.Clock] time; no deadline when omitted).  A closed peer, a
    timeout or any other socket error is an [Error] — never an
    exception. *)

val read_available : Unix.file_descr -> max:int -> [
  | `Data of string  (** up to [max] bytes that were ready *)
  | `Eof  (** orderly shutdown by the peer *)
  | `Nothing  (** EAGAIN: nothing buffered right now *)
  | `Error of string  (** connection reset or other socket failure *)
]
(** One nonblocking read.  EINTR retries internally. *)

val set_nonblock : Unix.file_descr -> unit
val sleepf : float -> unit
(** [Unix.sleepf] that resumes after EINTR until the full duration has
    elapsed (measured on the monotonic clock). *)
