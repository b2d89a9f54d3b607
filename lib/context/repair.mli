(** Subset repairs for denial constraints.

    The paper's Example 1 notes that the inter-dimensional constraint
    "no patient was in intensive care after August 2005" means the
    offending PatientWard tuple "should be discarded".  This module
    implements that semantics: given the negative constraints of a
    program, a {e repair} is a minimal set of deletions of {e deletable}
    tuples (categorical relation data, mapped source copies — never the
    fixed dimension facts) that removes every constraint violation, as
    in consistent query answering (Bertossi 2011, the paper's [3]).

    Scope: violations are detected on the extensional instance (before
    TGD completion).  Constraints whose bodies mention a TGD-derived
    predicate cannot be repaired by extensional deletions in general
    and are rejected with [Error].  EGD violations between two
    constants are treated as denial violations over the pair of
    offending tuples. *)

type deletion = { relation : string; tuple : Mdqa_relational.Tuple.t }

type witness = {
  constraint_name : string;
  deletions : deletion list;
      (** the deletable tuples of one violation; removing any one of
          them resolves it *)
}

val violations :
  Mdqa_datalog.Program.t ->
  Mdqa_relational.Instance.t ->
  deletable:(string -> bool) ->
  (witness list, string) result
(** All violation witnesses of the program's negative constraints and
    EGDs over the instance.  [Error] if some constraint involves a
    derived predicate, or if a violation has no deletable tuple at all
    (it cannot be repaired by deletions). *)

val repairs :
  ?guard:Mdqa_datalog.Guard.t ->
  ?max_repairs:int ->
  witness list ->
  deletion list list Mdqa_datalog.Guard.outcome
(** All minimal hitting sets of the witnesses — each is the deletion
    set of one subset repair.  At most [max_repairs] (default 64) are
    returned; deterministic order.  The guard bounds the branch-and-
    cover search (default branch budget: [max_repairs * 64]); on a trip
    the outcome is [Degraded] with the minimal repairs found so far —
    each still a valid repair, but the enumeration may be incomplete. *)

val greedy_repair : witness list -> deletion list
(** One repair, greedily deleting the tuple covering the most unsolved
    violations (not guaranteed minimum-cardinality, but minimal). *)

val apply :
  Mdqa_relational.Instance.t -> deletion list -> Mdqa_relational.Instance.t
(** A fresh copy of the instance with the deletions applied. *)

val assess_repaired :
  ?guard:Mdqa_datalog.Guard.t ->
  Context.t ->
  source:Mdqa_relational.Instance.t ->
  (Context.assessment * deletion list, string) result
(** Like {!Context.assess}, but if the extensional data violates the
    denial constraints, first discard a {!greedy_repair} of the
    ontology's categorical data and the mapped copies, then assess.
    Returns the assessment together with the discarded tuples.  The
    guard governs the assessment chase; a trip surfaces through
    {!Context.degradation} on the returned assessment. *)

val cautious_answers :
  ?guard:Mdqa_datalog.Guard.t ->
  ?max_repairs:int ->
  Context.t ->
  source:Mdqa_relational.Instance.t ->
  Mdqa_datalog.Query.t ->
  (Mdqa_relational.Tuple.t list Mdqa_datalog.Guard.outcome, string) result
(** Consistent quality answers: quality answers that hold under {e
    every} repair (the intersection over {!repairs}) — the
    consistent-query-answering semantics the paper points to.  One
    guard governs the repair enumeration and every per-repair chase;
    on any trip the outcome is [Degraded] with the intersection over
    the work completed (answers from partial chases under-approximate;
    an incomplete repair enumeration intersects fewer repairs), and
    the exhaustion report says which resource ran out. *)

val pp_deletion : Format.formatter -> deletion -> unit
