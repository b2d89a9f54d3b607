(** Schemas of the extended multidimensional model: SM = K ∪ O ∪ R.

    A schema bundles the dimension schemas with the categorical
    relation schemas and fixes the predicate naming used when the
    ontology is compiled to Datalog±:

    - K: each proper category [C] becomes the unary predicate
      [lowercase C] (e.g. [Ward] ↦ [ward]);
    - O: each child→parent edge becomes the binary predicate
      [parent_child] with the {e parent first}, as in the paper's
      [UnitWard(u, w)] (e.g. [Unit ← Ward] ↦ [unit_ward]);
    - R: categorical relations keep their declared names; their
      categorical attributes carry the dimension and category they are
      linked to (see {!Mdqa_relational.Attribute}).

    The top category [All] takes no predicate (the paper never
    navigates to it; every member trivially rolls up to [all]). *)

type t

(** What a schema-level conflict is about. *)
type conflict_kind =
  | Name_clash
      (** two declarations claim one name: duplicate dimension or
          relation names, a category shared by two dimensions, an
          ambiguous generated predicate, a relation named like a
          generated K/O predicate *)
  | Unknown_dimension
      (** a categorical attribute names an undeclared dimension *)
  | Unknown_category
      (** a categorical attribute names a category its dimension lacks
          (or [All]) *)

type conflict = {
  kind : conflict_kind;
  subject : string;
      (** the name of the dimension or relation declaration at fault,
          so callers can attach a source location *)
  message : string;
}

val check :
  dimensions:Dim_schema.t list ->
  relations:Mdqa_relational.Rel_schema.t list ->
  (t, conflict list) result
(** The schema, or every conflict in declaration order.  One pass
    checks the declarations and builds the inverse tables of
    {!category_of_pred} and {!parent_child_of_pred}. *)

val make :
  dimensions:Dim_schema.t list ->
  relations:Mdqa_relational.Rel_schema.t list ->
  t
(** {!check}, for declarations known to be well formed.
    @raise Invalid_argument with the first conflict's message when
    there is one. *)

val dimensions : t -> Dim_schema.t list
val dimension : t -> string -> Dim_schema.t option
val relations : t -> Mdqa_relational.Rel_schema.t list
val relation : t -> string -> Mdqa_relational.Rel_schema.t option

val category_pred : string -> string
(** Predicate name for a category: lowercased with [_] between words
    ([MonthDay] ↦ [month_day]). *)

val parent_child_pred : parent:string -> child:string -> string

val category_of_pred : t -> string -> (string * string) option
(** Inverse of {!category_pred}: [(dimension, category)]. *)

val parent_child_of_pred : t -> string -> (string * string * string) option
(** Inverse of {!parent_child_pred}: [(dimension, parent, child)]. *)

type position_kind =
  | Plain_pos
  | Category_pos of { dimension : string; category : string }

val position_kind : t -> string -> int -> position_kind option
(** Kind of position [(pred, i)] across R, K and O predicates; [None]
    for unknown predicates (e.g. contextual quality predicates). *)

val categorical_positions : t -> (string * int) list
(** All positions ranging over category members: every K and O
    position, and the categorical positions of the relations.  These
    have closed finite domains — the set handed to
    {!Mdqa_datalog.Separability.within_positions}. *)

val to_dot : t -> string
(** Graphviz rendering in the style of the paper's Figure 1: one
    cluster per dimension (roll-up arrows bottom-to-top) and one node
    per categorical relation, linked to the categories of its
    categorical attributes. *)

val pp : Format.formatter -> t -> unit
