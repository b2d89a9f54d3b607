(** Equality-generating dependencies: [∀x̄ (φ(x̄) → x = x')].

    The paper's dimensional constraints of form (2), e.g. "all the
    thermometers used in a unit are of the same type". *)

type t = private {
  name : string;
  body : Atom.t list;
  lhs : Term.t;
  rhs : Term.t;
}

val make : ?name:string -> body:Atom.t list -> Term.t -> Term.t -> t
(** @raise Invalid_argument if the body is empty or if a side is a
    variable that does not occur in the body. *)

val equated_vars : t -> Term.Var_set.t
(** The head variables (0, 1 or 2 of them; a side may be a constant). *)

val pp : Format.formatter -> t -> unit
