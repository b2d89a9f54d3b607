(** The Datalog± chase.

    Starting from an extensional instance, TGDs are fired to generate
    missing data (inventing labeled nulls for existential variables),
    EGDs are enforced by equating values (merging nulls, failing on a
    constant clash), and negative constraints are checked.

    Two variants are provided:

    - {e restricted} (standard) chase: a TGD fires on a body match only
      if no extension of the match already satisfies its head in the
      current instance;
    - {e oblivious} chase: every body match fires exactly once,
      regardless of head satisfaction (kept for the ablation benchmark:
      it invents many more nulls).

    Trigger enumeration is semi-naive by default, per rule: after a
    rule's first enumeration, only matches involving a fact added since
    its previous enumeration began are considered.  EGD merges keep it
    so: the tuples a merge rewrites count as added.  EGDs are enforced
    in passes: one search collects every violation (after the first,
    full check, only those touching a new or rewritten tuple), a
    union-find resolves them, and the instance is rewritten once per
    pass.

    For weakly-sticky programs over a fixed dimensional structure the
    chase terminates; resource budgets (steps, nulls, wall-clock
    deadline, memory watermark, cancellation — see {!Guard}) are
    enforced regardless, so a non-terminating rule set or a hostile
    input surfaces as [Out_of_budget] with an exhaustion report and a
    well-formed partial instance, instead of a hang. *)

type variant = Restricted | Oblivious

type failure =
  | Egd_clash of {
      egd : Egd.t;
      left : Mdqa_relational.Value.t;
      right : Mdqa_relational.Value.t;
    }  (** an EGD tried to equate two distinct constants *)
  | Nc_violation of { nc : Nc.t; witness : Subst.t }
      (** a negative constraint has a match *)

type outcome =
  | Saturated  (** fixpoint reached, all constraints satisfied *)
  | Out_of_budget of Guard.exhaustion
      (** a guard resource ran out; the report says which and how much
          was consumed.  The result's instance is the well-formed
          partial chase at the point of the trip. *)
  | Failed of failure

type stats = {
  rounds : int;
  tgd_fires : int;  (** number of TGD applications that added facts *)
  triggers_checked : int;
  nulls_created : int;
  egd_merges : int;
}

type derivation = {
  rule : string;  (** name of the TGD that produced the fact *)
  premises : (string * Mdqa_relational.Tuple.t) list;
      (** the instantiated body facts of the firing *)
}

type result = {
  instance : Mdqa_relational.Instance.t;
      (** the chased instance (meaningful even on failure: the state at
          the point of failure) *)
  outcome : outcome;
  stats : stats;
  provenance : ((string * Mdqa_relational.Tuple.t), derivation) Hashtbl.t option;
      (** when requested: for every fact {e derived} by a TGD firing,
          its first derivation.  Facts absent from the table are
          extensional.  EGD merges remap recorded facts consistently. *)
}

type checkpoint = {
  on_start : Mdqa_relational.Instance.t -> unit;
      (** called once, before the first round, with the fully
          initialized working instance (all program predicates
          declared): the durable base image *)
  on_fact : string -> Mdqa_relational.Tuple.t -> unit;
      (** a fact was added ({e after} the instance mutation) *)
  on_merge :
    from_:Mdqa_relational.Value.t -> into:Mdqa_relational.Value.t -> unit;
      (** an EGD pass merged [from_] into [into], both the current
          representatives of their values; the pass rewrites the
          instance once, after its last merge *)
  on_round :
    instance:Mdqa_relational.Instance.t ->
    frontier:(string * Mdqa_relational.Tuple.t list) list option ->
    stats ->
    unit;
      (** a round completed; [frontier] is every fact the round added,
          which covers every rule's pending delta, [None] after a round
          with an EGD merge (a resume from it then runs a full first
          round) *)
  on_done : instance:Mdqa_relational.Instance.t -> outcome -> stats -> unit;
      (** the run ended (saturated, degraded or failed).  Implementors
          must not raise: exceptions here would mask the outcome. *)
}
(** Durability hooks, called synchronously in mutation order so that a
    listener (the [Mdqa_store] write-ahead journal) always holds a
    prefix of the chase's own mutation sequence.  [on_fact]/[on_merge]
    may raise {!Guard.Exhausted} (e.g. a checkpoint byte budget): the
    run then degrades to [Out_of_budget] like any other trip. *)

type start =
  | Resume of {
      frontier : (string * Mdqa_relational.Tuple.t) list;
      null_base : int;
      prior_stats : stats;
    }
      (** continue an interrupted run from its recovered image (see
          [Mdqa_store.Store]).  A non-empty [frontier] seeds the
          semi-naive delta, so the first round only considers triggers
          involving facts added since the last completed round; an
          empty one means a full first round — always sound, just
          slower.  Fresh null labels start above [null_base], so a
          resumed run never re-issues a label the prior run used (even
          one merged away by an EGD).  [prior_stats] are folded into
          the reported statistics.  Provenance does not survive a
          resume (it is not persisted). *)
  | Extend of {
      prior : result;
      facts : (string * Mdqa_relational.Tuple.t) list;
    }
      (** incremental chase: the instance passed to {!run} is
          [prior.instance]; [facts] are added and become the initial
          semi-naive delta, so the work is proportional to their
          consequences, not to the whole instance.  [prior]'s
          provenance table (if any) is copied and extended.  When
          [prior] is not [Saturated] there is no sound delta: the run
          is a full chase of the instance plus [facts]. *)
(** Where a run starts.  Without one, {!run} chases from scratch. *)

val run :
  ?variant:variant ->
  ?semi_naive:bool ->
  ?provenance:bool ->
  ?guard:Guard.t ->
  ?checkpoint:checkpoint ->
  ?metrics:Mdqa_obs.Metrics.t ->
  ?start:start ->
  Program.t ->
  Mdqa_relational.Instance.t ->
  result
(** [run program instance] chases a {e copy} of [instance], the only
    extensional data ({!Program.instance_of_facts} for the program's
    own); neither it nor a prior provenance table is ever mutated.
    Defaults: [Restricted], semi-naive on, no provenance, a fresh
    start.  A resumed run reaches the same fixpoint an uninterrupted run
    reaches — same facts up to the labels of nulls invented after the
    interruption, same outcome.

    Resource governance: [guard] is consumed for every trigger (a
    step), invented null, and join row, and its deadline / memory /
    cancellation checks run cooperatively.  Without a guard, one
    bounding the run at 1,000,000 steps and 100,000 nulls is used.  A
    guard trip never raises out of [run]: it returns the partial
    instance with [Out_of_budget].

    Observability: the run counts its own work once — per rule fires,
    triggers, matches and time, per run rounds, merges and derived
    facts.  [stats] is the prior statistics plus these counts; when the
    run ends, by any path, they are added to the [mdqa_chase_*]
    counters of [metrics] (when given) and to the installed
    {!Mdqa_obs.Profile} (when one is).  When a {!Mdqa_obs.Trace} tracer
    is installed, [chase.round], [rule.fire] and [egd.merge] spans are
    emitted; [rule.fire] covers one rule's enumeration and firing in
    one round, not one trigger (per-trigger counts stay in [stats] and
    the profiler), and [egd.merge] one EGD pass's rewrite, with its
    [merges] count.  The profiler's [egd] and [nc] phases time EGD
    enforcement and negative-constraint checks. *)

val pp_outcome : Format.formatter -> outcome -> unit
