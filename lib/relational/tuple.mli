(** Tuples: immutable arrays of values.

    A tuple does not carry its schema; relations pair tuples with a
    schema and enforce arity. *)

type t

val of_list : Value.t list -> t
val unsafe_of_array : Value.t array -> t
(** The tuple shares the array, uncopied: writing the array changes the
    tuple.  For freshly built arrays and for reused lookup keys. *)

val to_list : t -> Value.t list
val arity : t -> int

val get : t -> int -> Value.t
(** @raise Invalid_argument if the position is out of range. *)

val set : t -> int -> Value.t -> t
(** Functional update: a new tuple with position [i] replaced. *)

val project : t -> int list -> t
(** [project t ps] keeps positions [ps] in the given order. *)

val append : t -> t -> t

val exists : (Value.t -> bool) -> t -> bool
val map : (Value.t -> Value.t) -> t -> t

val has_null : t -> bool
(** True iff some component is a labeled null. *)

val compare : t -> t -> int
(** Arity first, then {!Value.compare} position by position. *)

val equal : t -> t -> bool
(** [equal a b] is [compare a b = 0], decided without ordering. *)

val hash : t -> int
(** Equal tuples hash equal.  Allocates nothing. *)

val pp : Format.formatter -> t -> unit
(** Prints [(v1, v2, ...)]. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
