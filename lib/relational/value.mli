(** Domain values for database instances.

    Values populate tuples of relations. Besides ordinary constants
    (symbols, integers, reals) the domain contains {e labeled nulls},
    the fresh placeholder values invented by the Datalog± chase when a
    tuple-generating dependency with existential head variables fires.
    Two labeled nulls are equal iff they carry the same label. *)

type t =
  | Sym of string  (** symbolic constant, e.g. ["Tom Waits"], ["W1"] *)
  | Int of int  (** integer constant *)
  | Real of float  (** floating-point constant *)
  | Null of int  (** labeled null [⊥k], invented by the chase *)

val compare : t -> t -> int
(** Total order: nulls sort after constants; constants by kind then value. *)

val equal : t -> t -> bool

val hash : t -> int

val is_null : t -> bool
(** [is_null v] is [true] iff [v] is a labeled null. *)

val is_constant : t -> bool
(** [is_constant v] is [not (is_null v)]. *)

val sym : string -> t
val int : int -> t
val real : float -> t

val pp : Format.formatter -> t -> unit
(** Nulls print as [⊥k]; symbols print bare (quoted if they contain
    spaces or punctuation); numbers print canonically. *)

val to_string : t -> string
(** What {!pp} prints, built without a formatter. *)

val of_string : string -> t
(** Parse a value from its surface form: [⊥k] or [_:k] as nulls,
    integer/float literals as numbers, quoted or bare words as symbols. *)

module Fresh : sig
  (** Generator of fresh labeled nulls.

      A generator is a mutable counter; chases own one each so that
      runs are reproducible and independent. *)

  type gen

  val create : ?start:int -> unit -> gen

  val next : gen -> t
  (** [next g] is a labeled null unused by [g] so far. *)

  val count : gen -> int
  (** Number of nulls handed out so far. *)
end

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
