(** Query answering: the one place an engine is chosen and a result
    becomes complete, partial or inconsistent.

    The paper answers a quality query three ways (§IV): by the chase
    (materialize, then evaluate — certain answers on a universal
    model), by [DeterministicWSQAns] top-down proof search
    ({!Proof}), and by FO rewriting for upward-only ontologies
    ({!Rewrite}).  All three run under the same {!Guard.t} and report
    through the same {!outcome}: degradation, never a hang.  An engine
    whose scope ({!Analysis.scope}) excludes the program is refused,
    never run. *)

type engine = Analysis.engine = Chase | Proof | Rewrite

val engines : (string * engine) list
(** The wire and command-line names of the engines, in documentation
    order: [chase], [proof], [rewrite]. *)

val engine_name : engine -> string

type 'a outcome =
  | Ok of 'a
  | Inconsistent of Chase.failure
      (** the chase failed a constraint; every tuple is entailed in
          classical semantics, so no meaningful answer set exists *)
  | Degraded of {
      partial : 'a;
          (** answers supported by the work done before the trip — a
              sound under-approximation of the complete answer set *)
      exhaustion : Guard.exhaustion;  (** which resource ran out *)
    }
  | Refused of Diag.t
      (** [E033]: the engine is out of the program's scope, so its
          answers need not be the certain ones; nothing was run *)

val of_fixpoint :
  ?guard:Guard.t ->
  Chase.result ->
  Query.t ->
  Mdqa_relational.Tuple.t list outcome
(** Certain answers read off a chase result.  A failed chase is
    [Inconsistent].  A saturated one is evaluated under [guard]; a
    trip there keeps the answers of the matches found before it.  An
    out-of-budget one is [Degraded] with the chase's report and the
    answers on its partial instance, evaluated under [guard] unless
    that guard has already tripped (a trip is sticky). *)

val answer :
  ?guard:Guard.t ->
  ?goal_directed:bool ->
  ?max_steps:int ->
  engine ->
  Program.t ->
  Mdqa_relational.Instance.t ->
  Query.t ->
  Mdqa_relational.Tuple.t list outcome
(** Certain answers by the given engine.  [Chase] runs {!Chase.run}
    then {!of_fixpoint}; with [goal_directed] (off by default) the
    program is first restricted to the rules relevant to the query's
    predicates ({!Program.restrict_to_goals}).  [Proof] runs
    {!Proof.answer} with [max_steps] as its own search budget; the
    guard bounds its time, memory and cancellation.  [Rewrite] runs
    {!Rewrite.answers} (at most 10,000 disjuncts, whatever the guard).
    Both are first checked against {!Analysis.scope}: [Proof] needs a
    weakly-sticky program, [Rewrite] an acyclic predicate graph, and
    both separable EGDs (they ignore EGDs); outside it the answer is
    [Refused].  Only [Chase] can be [Inconsistent]: the other engines
    check no constraints. *)
