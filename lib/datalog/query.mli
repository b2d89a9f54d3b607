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

val matches :
  ?guard:Guard.t ->
  Mdqa_relational.Instance.t -> t -> Mdqa_relational.Tuple.t list
(** All head images over the given instance, including those containing
    labeled nulls; sorted, deduplicated.
    @raise Guard.Exhausted when the guard trips. *)

val certain :
  ?guard:Guard.t ->
  Mdqa_relational.Instance.t -> t -> Mdqa_relational.Tuple.t list
(** Null-free head images over the given (chased) instance.
    @raise Guard.Exhausted when the guard trips. *)

val holds : ?guard:Guard.t -> Mdqa_relational.Instance.t -> t -> bool
(** Boolean entailment over the given (chased) instance.
    @raise Guard.Exhausted when the guard trips. *)

(** End-to-end answering: chase then evaluate. *)

type 'a outcome =
  | Ok of 'a
  | Inconsistent of Chase.failure
      (** the chase failed; every tuple is entailed in classical
          semantics, so no meaningful answer set exists *)
  | Degraded of {
      partial : 'a;
          (** answers supported by the work done before the trip — a
              sound under-approximation of the complete answer set *)
      exhaustion : Guard.exhaustion;  (** which resource ran out *)
      stats : Chase.stats;
    }  (** a guard resource ran out during the chase or evaluation *)

val value : 'a outcome -> 'a option
(** The (possibly partial) answers; [None] on [Inconsistent]. *)

val certain_answers :
  ?guard:Guard.t ->
  ?chase_variant:Chase.variant ->
  ?goal_directed:bool ->
  Program.t ->
  Mdqa_relational.Instance.t ->
  t ->
  Mdqa_relational.Tuple.t list outcome
(** With [goal_directed] (off by default), the program is first
    restricted to the rules relevant to the query's predicates
    ({!Program.restrict_to_goals}) — same answers, smaller chase.
    The guard governs the chase {e and} the final evaluation; on any
    trip the result is [Degraded] with the partial answers, never an
    exception or a hang. *)

val entails :
  ?guard:Guard.t ->
  ?chase_variant:Chase.variant ->
  ?goal_directed:bool ->
  Program.t ->
  Mdqa_relational.Instance.t ->
  t ->
  bool outcome
(** Boolean conjunctive query answering via the chase.  [Degraded]
    carries [false] when the evaluation itself was cut short. *)

val pp : Format.formatter -> t -> unit
