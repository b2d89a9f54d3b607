(** Database instances: a mutable mapping from predicate names to
    relations.

    An instance is the extensional store used both for plain databases
    (the dirty instance D, contextual data, dimension extensions) and
    as the working set of the Datalog± chase. *)

type t

val create : unit -> t

val of_relations : Relation.t list -> t
(** @raise Invalid_argument on duplicate relation names. *)

val declare : t -> Rel_schema.t -> Relation.t
(** [declare i s] returns the relation named [Rel_schema.name s],
    creating it empty if absent.
    @raise Invalid_argument if a relation with that name exists with a
    different schema. *)

val find : t -> string -> Relation.t option
val get : t -> string -> Relation.t
(** @raise Not_found if absent. *)

val add_tuple : t -> string -> Tuple.t -> bool
(** Insert into the named relation ({!get} semantics); returns whether
    the tuple is new. *)

val relations : t -> Relation.t list
(** All relations, sorted by name (deterministic). *)

val total_tuples : t -> int

val iter_facts : (string -> Tuple.t -> unit) -> t -> unit
(** Iterate over all facts, by relation name then tuple order. *)

val substitute : t -> Value.t Value.Map.t -> (string * Tuple.Set.t) list
(** [substitute i sigma] applies {!Relation.substitute} to every
    relation: one simultaneous rewrite of the keys of [sigma] (EGD null
    merging, journal replay).  Returns the images per relation that
    moved a tuple, by relation name. *)

val copy : t -> t
(** Deep copy: relations are independent of the original's. *)

val equal : t -> t -> bool

val merge_into : dst:t -> src:t -> unit
(** Add all of [src]'s relations and facts into [dst].
    @raise Invalid_argument on schema clash. *)

val pp : Format.formatter -> t -> unit
