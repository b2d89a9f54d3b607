(** Tuple-generating dependencies (TGDs):
    [∀x̄ ∀ȳ (φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄))].

    Heads may have several atoms (the paper's rule (10) shares an
    existential unit variable between [InstitutionUnit] and
    [PatientUnit]).  Variables appearing in the head but not in the
    body are implicitly existentially quantified. *)

type t = private {
  name : string;  (** identifier used in proofs/diagnostics *)
  body : Atom.t list;
  head : Atom.t list;
}

val make : name:string -> body:Atom.t list -> head:Atom.t list -> unit -> t
(** @raise Invalid_argument if the body or head is empty, or if a head
    contains no atom. TGDs are safe by construction: head variables not
    occurring in the body are existential. *)

val body_vars : t -> Term.Var_set.t
val head_vars : t -> Term.Var_set.t

val existential_vars : t -> Term.Var_set.t
(** Head variables not occurring in the body ([z̄]). *)

val frontier : t -> Term.Var_set.t
(** Body variables occurring in the head ([x̄]). *)

val repeated_body_vars : t -> Term.Var_set.t
(** Variables with ≥ 2 occurrences in the body (counting occurrences,
    not atoms). *)

val rename : suffix:string -> t -> t
(** Rename all variables apart, e.g. for resolution steps. *)

val head_preds : t -> string list
val body_preds : t -> string list

val pp : Format.formatter -> t -> unit
