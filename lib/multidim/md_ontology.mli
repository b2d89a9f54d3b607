(** Multidimensional ontologies M = (SM, DM, ΣM) and their compilation
    to Datalog± (paper §III).

    An ontology bundles:
    - the schema SM = K ∪ O ∪ R ({!Md_schema});
    - the instance DM: one {!Dim_instance} per dimension plus the
      extensions of the categorical relations;
    - the intentional part ΣM: dimensional rules (TGDs of forms (4) and
      (10)), dimensional constraints (EGDs of form (2), negative
      constraints of form (3)), and the referential constraints (1).

    {b Compilation.}  {!program} emits the Datalog± rule set;
    {!instance} materializes the extensional instance: category
    membership facts ([ward(w1)]), parent-child facts
    ([unit_ward(standard, w1)]) and the categorical relation data.

    {b Referential constraints (1).}  The paper writes them with a
    negated category atom, which has no positive Datalog± encoding.
    Because dimension instances are fixed and finite (the paper's own
    assumption), they are checked directly against the closed category
    extensions by {!referential_violations} — same semantics, checked
    procedurally (documented substitution; see DESIGN.md §3/§5). *)

type t = private {
  schema : Md_schema.t;
  dim_instances : Dim_instance.t list;
  data : Mdqa_relational.Instance.t;
  rules : Mdqa_datalog.Tgd.t list;
  rule_infos : Dim_rule.info list;  (** analysis of each rule, in order *)
  egds : Mdqa_datalog.Egd.t list;
  ncs : Mdqa_datalog.Nc.t list;
}

val make :
  schema:Md_schema.t ->
  dim_instances:Dim_instance.t list ->
  ?data:Mdqa_relational.Instance.t ->
  ?rules:Mdqa_datalog.Tgd.t list ->
  ?egds:Mdqa_datalog.Egd.t list ->
  ?ncs:Mdqa_datalog.Nc.t list ->
  unit ->
  t
(** Checks, in this order: every declared dimension has exactly one
    instance, every instance has a declared dimension, every data
    relation is declared with its arity, and every rule passes
    {!Dim_rule.analyze}, which runs once per rule and fills
    [rule_infos].
    @raise Invalid_argument at the first failure. *)

val program : t -> Mdqa_datalog.Program.t
(** ΣM as a Datalog± program (rules, EGDs, NCs — no facts). *)

val instance : t -> Mdqa_relational.Instance.t
(** A fresh copy of DM: category facts, parent-child facts, categorical
    relation data. *)

type referential_violation = {
  relation : string;
  position : int;
  tuple : Mdqa_relational.Tuple.t;
  expected : string * string;  (** dimension, category *)
}

val referential_violations : t -> referential_violation list
(** Closed-world check of the form-(1) constraints: every value at a
    categorical position must be a member of the linked category. *)

val chase :
  ?variant:Mdqa_datalog.Chase.variant ->
  ?guard:Mdqa_datalog.Guard.t ->
  t ->
  Mdqa_datalog.Chase.result
(** The guard governs the chase as in {!Mdqa_datalog.Chase.run}. *)

val certain_answers :
  ?guard:Mdqa_datalog.Guard.t ->
  t -> Mdqa_datalog.Query.t ->
  Mdqa_relational.Tuple.t list Mdqa_datalog.Query.outcome

val proof_answers : t -> Mdqa_datalog.Query.t -> Mdqa_datalog.Proof.result
(** Answer via the top-down {!Mdqa_datalog.Proof} search (no chase). *)

val rewrite_answers :
  ?guard:Mdqa_datalog.Guard.t ->
  t -> Mdqa_datalog.Query.t ->
  Mdqa_relational.Tuple.t list Mdqa_datalog.Guard.outcome
(** Answer via FO rewriting — sound for upward-only ontologies.
    [Degraded] answers are the disjuncts evaluated before the guard
    tripped. *)

val is_upward_only : t -> bool

val classes : t -> Mdqa_datalog.Classes.report
(** Datalog± class report of the compiled rule set (experiment C1). *)

val separability : t -> Mdqa_datalog.Separability.verdict
(** {!Mdqa_datalog.Separability.within_positions} with the schema's
    categorical positions as the closed set (experiment C2). *)

val pp_violation : Format.formatter -> referential_violation -> unit
