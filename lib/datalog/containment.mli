(** Conjunctive-query containment, equivalence and minimization
    (Chandra–Merkin homomorphism test).

    [Q ⊆ Q'] (every answer of [Q] is an answer of [Q'] on every
    instance) holds iff there is a homomorphism from [Q'] into the
    {e frozen} body of [Q] mapping head to head.  Used by
    {!Rewrite.rewrite} to prune subsumed disjuncts from rewritten UCQs,
    and available as a standalone optimizer.

    Comparisons: the test is exact for comparison-free queries.  When
    either query carries comparisons, containment additionally requires
    the candidate homomorphism to map [Q']'s comparisons onto a
    syntactically identical subset of [Q]'s — sound (never claims a
    false containment) but incomplete. *)

val contained : sub:Query.t -> super:Query.t -> bool
(** [contained ~sub ~super]: is [sub ⊆ super]? *)

val equivalent : Query.t -> Query.t -> bool

val minimize : Query.t -> Query.t
(** The core of the query: repeatedly drop body atoms while the result
    stays equivalent.  The head and comparisons are preserved. *)

val prune_ucq : Query.t list -> Query.t list
(** Remove every disjunct contained in another one (keeping the first
    of equivalent pairs); the union's answers are unchanged. *)
