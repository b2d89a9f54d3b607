(** Unified resource governance for the whole QA pipeline.

    The paper's tractability results (weakly-sticky Datalog± keeps BCQ
    answering PTIME) promise an engine that never hangs; this module
    makes that promise operational.  A {!t} bundles every budget the
    engine enforces — chase steps, invented nulls, join rows, rewriting
    disjuncts, repair branches — together with a wall-clock deadline, a
    heap watermark and a cooperative cancellation flag.  One guard is
    threaded through a whole pipeline run ({!Chase.run}, {!Eval},
    {!Rewrite}, {!Proof}, {!Query}, repairs, context assessment), so
    the budgets are global to the run, not per-stage.

    Engines consume resources through the [count_*] functions; when a
    budget is exceeded the guard records an {!exhaustion} report and
    raises {!Exhausted}.  Public entry points catch the exception and
    return the partial result computed so far alongside the report —
    degradation, never a hang or a bare failure.

    The clock and heap sampler are injectable so tests can
    deterministically fault-inject every exhaustion path
    ([~clock:(fun () -> ...)], [~check_every:1]). *)

type resource =
  | Steps  (** chase trigger budget *)
  | Nulls  (** invented labeled nulls *)
  | Rows  (** join rows emitted by {!Eval} *)
  | Cqs  (** conjunctive queries produced by {!Rewrite} *)
  | Depth
      (** rule applications on one {!Proof} branch: a branch that
          needed more than the depth bound (32) was pruned *)
  | Repair_branches  (** hitting-set search branches in repairs *)
  | Checkpoint_bytes  (** bytes written to a chase checkpoint store *)
  | Deadline  (** wall-clock timeout *)
  | Memory  (** heap watermark *)
  | Cancelled  (** cooperative cancellation was requested *)

type exhaustion = {
  resource : resource;  (** which resource ran out *)
  limit : float;  (** the configured cap, in the resource's unit *)
  used : float;  (** consumption at the moment the guard tripped *)
}

type consumption = {
  steps : int;
  nulls : int;
  rows : int;
  cqs : int;
  repair_branches : int;
  checkpoint_bytes : int;
      (** snapshot + journal bytes written by the durability layer
          ([lib/store]), so [--timeout] / [--max-memory] runs report
          checkpoint I/O alongside the compute budgets *)
  elapsed : float;  (** seconds since the guard was created *)
  heap_mb : float;  (** heap size at the last sample, in MiB *)
}

(** Outcome of a governed computation: the result, possibly partial. *)
type 'a outcome =
  | Complete of 'a
  | Degraded of 'a * exhaustion
      (** a budget ran out; the carried value is the well-formed
          partial result computed before the trip *)

type t

exception Exhausted of exhaustion

(** The non-decreasing wall clock of {!Mdqa_obs.Clock}, which deadline
    checks (and benchmark timings) read. *)
module Clock = Mdqa_obs.Clock

val create :
  ?max_steps:int ->
  ?max_nulls:int ->
  ?max_rows:int ->
  ?max_cqs:int ->
  ?max_repair_branches:int ->
  ?max_checkpoint_bytes:int ->
  ?timeout:float ->
  ?max_memory_mb:float ->
  ?clock:(unit -> float) ->
  ?heap_sampler:(unit -> float) ->
  ?check_every:int ->
  unit ->
  t
(** A fresh guard.  Omitted budgets are unlimited.  [timeout] is in
    seconds from creation; [max_memory_mb] is a heap watermark in MiB.
    [clock] defaults to {!Clock.now}; [heap_sampler] (returning MiB)
    defaults to sampling [Gc.quick_stat].  Deadline, memory and
    cancellation are checked every [check_every] ticks (default 64;
    use [1] in tests for deterministic fault injection). *)

val unlimited : unit -> t
(** A guard with no limits — still tracks consumption and supports
    cancellation. *)

val fork : ?max_steps:int -> ?max_cqs:int -> ?timeout:float -> t -> t
(** [fork parent] is a child guard for one unit of work — a served
    request, or an engine's own safety cap (proof steps, rewriting
    disjuncts): a budget given here is capped by what {e remains} of
    the parent's (so the work can never spend more than the parent has
    left), every other budget is that remainder, and the deadline is
    the earlier of [timeout] seconds from now and the parent's.  The
    clock, heap sampler, memory watermark and [check_every] are
    inherited, the cancellation flag copied as it is now (a later
    {!cancel} of the parent does not reach the child); consumption
    counters start at zero.  Fold the child's spending back into the
    parent with {!absorb} when the work finishes, if it is the
    parent's. *)

val absorb : t -> t -> unit
(** [absorb parent child] adds the child's counted consumption
    (steps, nulls, rows, cqs, repair branches, checkpoint bytes) into
    the parent's counters.  Never raises: if a parent budget is now
    exceeded, the parent's next [count_*] call trips it. *)

val cancel : t -> unit
(** Request cooperative cancellation: the next check trips the guard
    with resource {!Cancelled}. *)

val is_cancelled : t -> bool

val check : t -> unit
(** Unconditionally check deadline, memory watermark and cancellation.
    @raise Exhausted when one of them is exceeded. *)

val tick : t -> unit
(** Cheap cooperative check: runs {!check} every [check_every] calls.
    Engines call this in inner loops (per candidate tuple, per
    unfolding attempt). *)

val count_step : t -> unit
(** Consume one chase step. @raise Exhausted past [max_steps]. *)

val count_null : t -> unit
(** Consume one invented null. @raise Exhausted past [max_nulls]. *)

val count_row : t -> unit
(** Consume one emitted join row. @raise Exhausted past [max_rows]. *)

val count_cq : t -> unit
(** Consume one rewriting disjunct. @raise Exhausted past [max_cqs]. *)

val count_repair_branch : t -> unit
(** Consume one repair-search branch.
    @raise Exhausted past [max_repair_branches]. *)

val count_checkpoint_bytes : t -> int -> unit
(** [count_checkpoint_bytes g n] consumes [n] bytes of checkpoint I/O
    (snapshot or journal writes).
    @raise Exhausted past [max_checkpoint_bytes]. *)

val consumption : t -> consumption
(** Current consumption — usable as per-run stats by the server and
    the tests. *)

val record_metrics : t -> Mdqa_obs.Metrics.t -> unit
(** Publish the guard's current {!consumption} into a metrics registry
    as [mdqa_guard_*] gauges (steps, nulls, rows, cqs, repair branches,
    checkpoint bytes, elapsed seconds, heap MiB). *)

val exhaustion : t -> exhaustion option
(** The recorded report if the guard has tripped. *)

val value : 'a outcome -> 'a
(** The carried value, complete or partial. *)

val degraded : 'a outcome -> exhaustion option

val resource_name : resource -> string
val pp_exhaustion : Format.formatter -> exhaustion -> unit
(** One line naming the resource, what was used and the limit.  A
    deadline's limit is printed as given ([%g]), so a sub-millisecond
    timeout reads as itself. *)
