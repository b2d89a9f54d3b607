(** Monotonic wall-clock time in seconds: [Unix.gettimeofday] wrapped
    so the reported time never decreases, making deadlines, spans and
    timings robust to clock steps.  The default clock of {!Trace},
    {!Profile} and the chase guard. *)

val now : unit -> float
