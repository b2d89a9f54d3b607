(** Relational algebra over {!Relation.t}.

    All operators are functional: they allocate result relations and
    never mutate their inputs.  They are used by the context layer to
    materialize quality versions and by tests as an executable
    semantics to validate the query evaluator against. *)

type predicate = Tuple.t -> bool

val select : predicate -> Relation.t -> Relation.t

val select_eq : int -> Value.t -> Relation.t -> Relation.t
(** [select_eq pos v r] keeps tuples with [v] at [pos] (index-backed). *)

val project : ?name:string -> int list -> Relation.t -> Relation.t
(** [project ps r] keeps positions [ps] in order; duplicates collapse.
    The result schema keeps the projected attributes; [name] overrides
    the result relation name (default: input name). *)

val rename : string -> Relation.t -> Relation.t
(** Change the relation name, keep attributes and tuples. *)

val union : Relation.t -> Relation.t -> Relation.t
(** @raise Invalid_argument on arity mismatch.  Result uses the left
    schema. *)

val diff : Relation.t -> Relation.t -> Relation.t
(** Tuples of the left relation absent from the right.
    @raise Invalid_argument on arity mismatch. *)

val intersect : Relation.t -> Relation.t -> Relation.t

val product : ?name:string -> Relation.t -> Relation.t -> Relation.t
(** Cartesian product; attribute names of the right operand are
    prefixed with its relation name on clash. *)

val join : ?name:string -> (int * int) list -> Relation.t -> Relation.t
  -> Relation.t
(** [join eqs l r] is the equi-join on pairs [(li, ri)] of positions;
    the result concatenates the full tuples of both sides (one
    {!Relation.probe} of [r] per tuple of [l], keyed on every [ri]). *)

val natural_join : ?name:string -> Relation.t -> Relation.t -> Relation.t
(** Equi-join on all attribute names common to both schemas; common
    attributes appear once (from the left side). *)
