(** Cost-attribution profiler for the chase engine.

    Where {!Metrics} answers "how much, in total" and {!Trace} answers
    "when, in what order", the profiler answers "which rule, which body
    atom, which query" — the attribution needed to pick join orders and
    name hot rules.  It is always compiled in and off by default: a
    profiler is installed process-globally ([install]) exactly like a
    {!Trace} tracer, instrumented code pays a single ref read when none
    is installed, and the chase, which counts its own work, hands over
    each rule's totals once per run ({!add_rule}), so the profiled path
    stays within the overhead budget (≤1.05x on an unprofiled
    assessment).

    The profiler keeps no timer of its own for layers: it is a sink of
    {!Trace.with_span}, which times each scope once and hands the
    duration to both the tracer and the profiler.  Its phases are the
    per-name sums of those scopes; a ["chase.round"] scope is also
    filed by its ["round"] attribute in [rounds], and an ["eval"] scope
    by its ["query"] attribute in [queries].

    Everything is keyed on stable identifiers: rule name (the TGD name
    from the program text), body-atom source position within the rule
    (index 0 is the first written atom, regardless of the join order
    the evaluator actually picked; that order is in
    {!atom_stat.step}), query name, chase round number and
    scope name.  Collected state is read out as an immutable
    {!snapshot} whose {!merge} is associative and commutative, so
    snapshots from different runs or processes combine like {!Metrics}
    snapshots do. *)

type t
(** A mutable collector. *)

(** {1 Aggregated statistics} *)

type rule_stat = {
  fires : int;  (** firings that derived at least one new fact *)
  triggers : int;  (** deduplicated triggers checked *)
  matches : int;  (** body matches enumerated (before trigger dedup) *)
  rule_seconds : float;
      (** wall time attributed to the rule: the three parts below plus
          {!bookkeeping_seconds} *)
  enumerate_seconds : float;  (** body enumeration and trigger dedup *)
  probe_seconds : float;
      (** restricted-chase head probes (the oblivious chase's
          fired-trigger test); about 0 for a restricted rule without
          existentials, whose membership test is its insert, counted
          in [insert_seconds] *)
  insert_seconds : float;
      (** null minting, head instantiation, insertion with index
          maintenance, the stamp log and the checkpoint hook *)
}

type atom_stat = {
  visits : int;
      (** substitutions arriving at this atom, including those whose
          index probe finds an empty bucket *)
  scanned : int;
      (** tuples walked at this atom, including those a filter
          (semi-naive delta, repeated variable, comparison) rejects *)
  matched : int;  (** substitutions passed on to the next step *)
  key : string;
      (** the access path of the atom's step: ["key=(0,2)"] for an
          exact probe on those positions, ["scan"] or ["delta"]; the
          distinct paths of several plans joined by ["|"] *)
  step : int;
      (** the atom's position in the executed join order (the earliest
          one when several plans ran) *)
}

type round_stat = {
  round_count : int;  (** runs contributing to this round number *)
  round_seconds : float;
  minor_collections : int;  (** GC minor collections during the round *)
  major_collections : int;  (** GC major collections during the round *)
  heap_words : int;  (** max heap size observed at a round boundary *)
}

type query_stat = {
  evals : int;
  query_seconds : float;
}

type phase_stat = {
  calls : int;
  phase_seconds : float;
}

type snapshot = {
  rules : (string * rule_stat) list;  (** sorted by rule name *)
  atoms : ((string * int * string) * atom_stat) list;
      (** keyed [(rule_or_query, atom_index, predicate)], sorted *)
  rounds : (int * round_stat) list;  (** keyed by round number, sorted *)
  queries : (string * query_stat) list;  (** sorted by query name *)
  phases : (string * phase_stat) list;
      (** one row per scope name ({!Trace.with_span}), sorted *)
}

(** {1 Collector lifecycle} *)

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] defaults to {!Clock.now}; inject a fake for deterministic
    tests. *)

val install : t -> unit
val uninstall : unit -> unit
val installed : unit -> t option

val active : unit -> bool
(** [active () = (installed () <> None)] — cheap hot-path check. *)

val clear : t -> unit
(** Drop all accumulated statistics (the clock is kept). *)

(** {1 Collection hooks} *)

val now : t -> float
(** Read the collector's clock: the chase's per-rule timing, and the
    clock of {!Trace.with_span} when no tracer is installed. *)

val add_rule : t -> string -> rule_stat -> unit
(** Add one run's totals for a rule (creating its entry on first use). *)

val with_scope : t -> string -> (unit -> 'a) -> 'a
(** Run [f] with atom-level statistics attributed to the given rule or
    query name; the previous scope is restored even on exceptions. *)

val scoped : unit -> t option
(** The installed profiler, but only while some [with_scope] is
    dynamically active — evaluation outside any attribution scope (EGD
    checks, applicability probes) reports nothing. *)

type atom_cell

val atom_cell :
  t -> idx:int -> pred:string -> step:int -> key:string -> atom_cell option
(** The current scope's counters of body atom [idx] ([pred]), run as
    step [step] of its plan through access path [key], created on first
    use; [None] when no scope is active.  A plan resolves one per step
    at its first visit and credits every visit to it. *)

val count_visit : atom_cell -> scanned:int -> matched:int -> unit
(** Credit one visit: one substitution arriving, [scanned] tuples
    walked, [matched] substitutions passed on. *)

(** {1 Scope sink}

    Called by {!Trace.with_span} only. *)

type entry
(** What a scope keeps from its entry. *)

val enter : string -> entry
(** A scope of this name opens: a ["chase.round"] samples
    [Gc.quick_stat], any other reads nothing. *)

val leave : t -> entry -> string -> (string * string) list -> float -> unit
(** [leave t entry name attrs seconds]: the scope closed after
    [seconds].  Adds one call and [seconds] to phase [name]; a
    ["chase.round"] with a ["round"] attribute also adds them, and the
    GC deltas since [entry], to that round, and an ["eval"] with a
    ["query"] attribute to that query. *)

(** {1 Snapshots} *)

val snapshot : t -> snapshot
(** Immutable copy of the current statistics, all lists sorted. *)

val merge : snapshot -> snapshot -> snapshot
(** Pointwise combination: counters and seconds add, [heap_words]
    takes the max.  Associative and commutative, so snapshots can be
    folded in any order. *)

val empty : snapshot

val find_rule : snapshot -> string -> rule_stat option
val find_atom : snapshot -> string * int * string -> atom_stat option
val find_phase : snapshot -> string -> phase_stat option

val selectivity : atom_stat -> float
(** [matched / scanned] ([0.] when nothing was scanned).  An exact
    probe returns only tuples agreeing on every bound position, so this
    drops below [1.] only where a filter rejects walked tuples (the
    semi-naive delta, a repeated variable, a comparison); {!fan_out}
    is the join-order statistic. *)

val fan_out : atom_stat -> float
(** [matched / visits]: substitutions passed on per substitution
    arriving ([0.] when never visited).  Above [1.] the atom multiplies
    the partial matches, below [1.] it cuts them. *)

val bookkeeping_seconds : rule_stat -> float
(** The rule's time outside the three timed parts: per-run setup and
    the trigger loop itself. *)

val total_rule_seconds : snapshot -> float
val total_query_seconds : snapshot -> float

val to_json : snapshot -> Jsonl.t
(** Self-contained JSON object with ["rules"], ["atoms"] (each row
    carrying its ["step"] and ["key"] and the derived ["selectivity"]
    and ["fan_out"]), ["rounds"], ["queries"] and ["phases"] arrays,
    each sorted by key.  Seconds and ratios are {!Jsonl.Float}s, so
    they print as JSON floats even when integral. *)
