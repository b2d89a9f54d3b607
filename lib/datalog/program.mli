(** Datalog± programs: dependencies plus an extensional database.

    A program bundles the rule sets ΣM (TGDs, EGDs, negative
    constraints) with the predicate inventory.  Arities are inferred
    from all rule atoms and validated for consistency.  The extensional
    data itself lives in a {!Mdqa_relational.Instance.t} supplied to
    the chase / query answering entry points. *)

type t = private {
  tgds : Tgd.t list;
  egds : Egd.t list;
  ncs : Nc.t list;
  facts : Atom.t list;  (** ground facts bundled with the program text *)
}

val make :
  ?tgds:Tgd.t list ->
  ?egds:Egd.t list ->
  ?ncs:Nc.t list ->
  ?facts:Atom.t list ->
  unit ->
  t
(** @raise Invalid_argument if a predicate is used with two different
    arities or a listed fact is not ground. *)

val arity_of : t -> string -> int option

val predicates : t -> (string * int) list
(** All predicates with arities, sorted by name. *)

val positions : t -> (string * int) list
(** All positions [(pred, i)], sorted. *)

val idb_predicates : t -> string list
(** Predicates occurring in some TGD head. *)

val tgds_with_head : t -> string -> Tgd.t list

val predicate_graph : t -> (string * string) list
(** Edges body-pred → head-pred over all TGDs (deduplicated). *)

val predicate_graph_acyclic : t -> bool
(** No directed cycle in {!predicate_graph}: unfolding-based rewriting
    terminates. *)

val relevant_tgds : t -> goals:string list -> Tgd.t list
(** The TGDs that can contribute to deriving facts over the [goals]
    predicates, over the EGD/NC body predicates (their enforcement
    needs those facts), transitively through the predicate graph.
    Sound for goal-directed chasing: dropping the others cannot change
    certain answers over [goals]. *)

val restrict_to_goals : t -> goals:string list -> t
(** The program with only {!relevant_tgds} (EGDs, NCs and facts kept). *)

val instance_of_facts : t -> Mdqa_relational.Instance.t
(** Fresh instance holding the program's bundled facts, with all
    program predicates declared (plain attribute names [c0..cn]). *)

val declare_predicates : t -> Mdqa_relational.Instance.t -> unit
(** Declare every program predicate in an existing instance, so the
    chase can write to them.  Existing relations are kept; a predicate
    already present with a different arity raises [Invalid_argument]. *)

val pp : Format.formatter -> t -> unit
