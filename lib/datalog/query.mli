(** Conjunctive queries and certain-answer semantics.

    A query [Q(x̄) ← φ(x̄,ȳ), χ] has distinguished head terms [x̄]
    (variables or constants), a conjunctive body and comparison side
    conditions.  Over a chased instance, {e certain answers} are the
    matches whose head terms are bound to non-null constants: for
    TGD-only (and separable) programs the chase is a universal model,
    so null-free answers on it coincide with certain answers. *)

type t = private {
  name : string;
  head : Term.t list;
  body : Atom.t list;
  cmps : Atom.Cmp.t list;
}

val make :
  ?name:string ->
  ?cmps:Atom.Cmp.t list ->
  head:Term.t list ->
  Atom.t list ->
  t
(** @raise Invalid_argument if the body is empty, a head variable does
    not occur in the body, or a comparison variable does not occur in
    the body. *)

val boolean : ?name:string -> ?cmps:Atom.Cmp.t list -> Atom.t list -> t
(** A boolean conjunctive query (empty head). *)

val is_boolean : t -> bool
val answer_vars : t -> Term.Var_set.t

val evaluate :
  ?guard:Guard.t ->
  Mdqa_relational.Instance.t -> t ->
  Mdqa_relational.Tuple.t list Guard.outcome
(** The null-free head images of every match over the given (chased)
    instance, sorted and deduplicated (also as they accumulate, so
    memory follows the distinct images).  Each image is read off the
    evaluator's slots ({!Eval.iter_matches}) through the head, compiled
    once per call.  A guard trip is absorbed: [Degraded] carries the
    images of the matches found before it. *)

val matches :
  ?guard:Guard.t ->
  Mdqa_relational.Instance.t -> t -> Mdqa_relational.Tuple.t list
(** Every match's head image, labeled nulls included, sorted and
    deduplicated.  @raise Guard.Exhausted when the guard trips. *)

val certain :
  ?guard:Guard.t ->
  Mdqa_relational.Instance.t -> t -> Mdqa_relational.Tuple.t list
(** {!evaluate}'s answers.
    @raise Guard.Exhausted when the guard trips. *)

val pp : Format.formatter -> t -> unit
