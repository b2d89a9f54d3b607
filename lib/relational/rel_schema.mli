(** Relation schemas: a relation name plus an ordered attribute list.

    Schemas are immutable.  Positions are 0-based and used throughout
    the Datalog± layer to identify attribute occurrences ("positions"
    in the Calì–Gottlob–Pieris sense, written [R\[i\]]). *)

type t

val make : string -> Attribute.t list -> t
(** [make name attrs] builds a schema.
    @raise Invalid_argument on duplicate attribute names. *)

val of_names : string -> string list -> t
(** Schema with all-plain attributes of the given names. *)

val name : t -> string
val attributes : t -> Attribute.t list
val arity : t -> int

val attribute : t -> int -> Attribute.t
(** @raise Invalid_argument if the position is out of range. *)

val position_of : t -> string -> int option
(** Position of the attribute with the given name, if any. *)

val categorical_positions : t -> int list
(** Positions of categorical attributes, ascending. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
