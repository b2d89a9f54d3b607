(** Datalog± programs: the rule sets ΣM (TGDs, EGDs, negative
    constraints) and the ground facts of their text, one relation per
    predicate, taken as the parser filled them ({!Parser.add_fact}).
    Arities are inferred from rule atoms and fact relations
    and validated for consistency.  The chase reads extensional data
    only from the instance it is given ({!instance_of_facts}). *)

type t = private {
  tgds : Tgd.t list;
  egds : Egd.t list;
  ncs : Nc.t list;
  facts : Mdqa_relational.Relation.t list;
      (** one relation per predicate with facts, by name, attributes
          [c0..cn]; shared by {!instance_of_facts}, never mutated *)
}

val schema : string -> int -> Mdqa_relational.Rel_schema.t
(** The schema of a program predicate of that arity: the predicate's
    name, attributes [c0..cn]. *)

val of_relations :
  tgds:Tgd.t list ->
  egds:Egd.t list ->
  ncs:Nc.t list ->
  Mdqa_relational.Relation.t list ->
  t
(** The program whose facts are the given relations, one per
    predicate, each under its {!schema}, taken as they are.
    @raise Invalid_argument as {!make}. *)

val make :
  ?tgds:Tgd.t list ->
  ?egds:Egd.t list ->
  ?ncs:Nc.t list ->
  ?facts:Atom.t list ->
  unit ->
  t
(** {!of_relations} over ground atoms, added to their relations one by
    one.
    @raise Invalid_argument if a predicate is used with two different
    arities or a listed fact is not ground. *)

val predicates : t -> (string * int) list
(** All predicates with arities, sorted by name. *)

val positions : t -> (string * int) list
(** All positions [(pred, i)], sorted. *)

val idb_predicates : t -> string list
(** Predicates occurring in some TGD head. *)

val tgds_with_head : t -> string -> Tgd.t list
(** The TGDs with a head atom over a predicate, in program order, from
    a table [tgds_with_head p] builds: apply it once per program. *)

val predicate_graph_acyclic : t -> bool
(** No directed cycle in the body-predicate → head-predicate graph of
    the TGDs: unfolding-based rewriting terminates. *)

val restrict_to_goals : t -> goals:string list -> t
(** The program with only the TGDs that can contribute to deriving
    facts over the [goals] predicates or over the EGD/NC body
    predicates, transitively through the predicate graph (EGDs, NCs
    and facts kept).  Sound for goal-directed chasing: dropping the
    others cannot change certain answers over [goals]. *)

val instance_of_facts : t -> Mdqa_relational.Instance.t
(** Fresh instance holding the program's facts, with all program
    predicates declared (plain attribute names [c0..cn]).  Each fact
    relation's tuple set is shared, not copied: O(1) per predicate. *)

val declare_predicates : t -> Mdqa_relational.Instance.t -> unit
(** Declare every program predicate in an existing instance, so the
    chase can write to them.  Existing relations are kept; a predicate
    already present with a different arity raises [Invalid_argument]. *)
