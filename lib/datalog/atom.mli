(** Atoms [p(t1, ..., tn)] and comparison atoms.

    Relational atoms are the building blocks of rule bodies and heads.
    Comparison atoms ([t1 op t2]) appear in queries and negative
    constraints as side conditions; they are evaluated over the total
    order of {!Mdqa_relational.Value}. *)

type t = { pred : string; args : Term.t array }

val make : string -> Term.t list -> t
val pred : t -> string
val args : t -> Term.t list
val arity : t -> int

val arg : t -> int -> Term.t
(** @raise Invalid_argument if out of range. *)

val vars : t -> Term.Var_set.t
(** Variables occurring in the atom. *)

val var_positions : t -> string -> int list
(** Positions (0-based) at which the given variable occurs. *)

val const_args : t -> (int * Mdqa_relational.Value.t) list
(** The constant arguments with their positions, ascending: the
    {!Mdqa_relational.Relation.probe} key of the facts the atom can
    match. *)

val is_ground : t -> bool

val to_tuple : t -> Mdqa_relational.Tuple.t
(** Convert a ground atom to a tuple.
    @raise Invalid_argument if the atom contains variables. *)

val of_fact : string -> Mdqa_relational.Tuple.t -> t

val rename_vars : (string -> string) -> t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** Comparison operators for side conditions. *)
module Cmp : sig
  type op = Eq | Neq | Lt | Le | Gt | Ge

  type nonrec t = { op : op; lhs : Term.t; rhs : Term.t }

  val make : op -> Term.t -> Term.t -> t

  val vars : t -> Term.Var_set.t

  val holds : op -> Mdqa_relational.Value.t -> Mdqa_relational.Value.t -> bool
  (** Evaluate on ground values using {!Mdqa_relational.Value.compare};
      symbolic constants compare lexicographically, which the examples
      rely on for the paper's fixed-width timestamps. *)

  val eval : t -> bool option
  (** [Some b] if both sides are constants, [None] otherwise. *)

  val op_to_string : op -> string
  val pp : Format.formatter -> t -> unit
end
