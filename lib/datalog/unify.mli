(** Unification and matching of atoms.

    [unify] treats variables of both atoms as unifiable (used by the
    top-down prover and the rewriting engine — rename apart first).
    [match_against] is one-way: only the pattern's variables may be
    bound (used for trigger finding and fact lookup). *)

val unify : ?init:Subst.t -> Atom.t -> Atom.t -> Subst.t option
(** Most general unifier of two atoms (same predicate and arity
    required). *)

val match_against : ?init:Subst.t -> pattern:Atom.t -> Atom.t -> Subst.t option
(** [match_against ~pattern a] binds only [pattern]'s variables so that
    the instantiated pattern equals [a]; [a]'s variables are treated as
    constants (normally [a] is ground). *)

val rename_apart : suffix:string -> Atom.t list -> Atom.t list
(** Rename every variable [v] to [v ^ suffix]. *)
