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
      (** the program fails a constraint; every tuple is entailed in
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
  engine ->
  Program.t ->
  Mdqa_relational.Instance.t ->
  Query.t ->
  Mdqa_relational.Tuple.t list outcome
(** Certain answers by the given engine, bounded by [guard] alone.
    [Chase] chases the program restricted to the query's goals
    ({!Program.restrict_to_goals}), then reads it off ({!of_fixpoint}).
    [Proof] ({!Proof.answer}) and [Rewrite] ({!Rewrite.answers}) run
    only in their {!Analysis.scope} — [Proof] a weakly-sticky program,
    [Rewrite] an acyclic one, both separable EGDs — else [Refused].
    In scope they check consistency through the same engine first:
    each EGD is asked as [clash(L, R) :- body, L != R] and each NC as
    a boolean query; a hit is [Inconsistent] with the chase's failure,
    and a trip before the check decides is [Degraded] with no
    answers. *)
