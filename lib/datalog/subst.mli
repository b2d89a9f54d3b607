(** Substitutions: finite maps from variables to terms.

    Substitutions are kept idempotent by {!bind} (the bound term is
    walked through the substitution first and existing bindings are
    never overwritten), which is what unification needs. *)

type t

val empty : t

val walk : t -> Term.t -> Term.t
(** Follow variable bindings until a constant or an unbound variable. *)

val bind : t -> string -> Term.t -> t option
(** [bind s v t] adds [v ↦ walk s t].  Returns [None] if [v] is already
    bound to a different term (after walking), [Some s'] otherwise.
    Binding [v] to itself is the identity. *)

val bind_exn : t -> string -> Term.t -> t
(** @raise Invalid_argument where {!bind} returns [None]. *)

val of_list : (string * Term.t) list -> t
(** @raise Invalid_argument on conflicting bindings. *)

val to_list : t -> (string * Term.t) list
(** Bindings sorted by variable name. *)

val apply_term : t -> Term.t -> Term.t
val apply_atom : t -> Atom.t -> Atom.t
val apply_atoms : t -> Atom.t list -> Atom.t list
val apply_cmp : t -> Atom.Cmp.t -> Atom.Cmp.t

val pp : Format.formatter -> t -> unit
