(** First-order (UCQ) rewriting of conjunctive queries, for the
    "upward-only" ontologies of §IV of the paper.

    The query is repeatedly {e unfolded}: an atom is resolved against a
    TGD head (renamed apart) and replaced by the TGD body.  Every
    intermediate query is kept in the output union, because a predicate
    may carry extensional facts as well as derived ones.  The resulting
    UCQ is evaluated directly on the extensional database — no chase.

    Unfolding an atom against a head with existential variables is only
    {e applicable} when each existential position meets an unshared,
    non-answer variable of the query (the standard single-piece
    condition); otherwise that unfolding is skipped.

    Termination: when the program's predicate graph is acyclic —
    syntactically guaranteed for upward-only multidimensional
    ontologies, where rules only move data to strictly higher category
    levels — unfolding terminates.  A cap of 10,000 disjuncts and the
    {!Guard.t} (CQ budget, deadline, memory, cancellation) bound cyclic
    or explosive inputs: the rewriting degrades to the disjuncts
    produced so far instead of diverging.  Only a deadline bounds the
    time of the ever longer joins a cyclic program unfolds into, so
    {!Answer.answer} refuses cyclic programs ({!Analysis.scope}). *)

type rewriting = {
  ucq : Query.t list;  (** the union of conjunctive queries *)
  expansions : int;  (** unfolding steps performed *)
  pruned : int;  (** disjuncts removed by containment pruning *)
}

val rewrite :
  ?guard:Guard.t -> Program.t -> Query.t -> rewriting Guard.outcome
(** Each disjunct is one CQ of a {!Guard.fork} of [guard] capped at
    10,000: past the cap, or past what was left of [guard]'s CQ
    budget, the rewriting degrades with a {!Guard.Cqs} exhaustion
    reporting that limit.  What the unfolding spent is charged back to
    [guard] ({!Guard.absorb}).  Disjuncts contained in another
    disjunct are removed via {!Containment}.  [Degraded] carries the
    (pruned) disjuncts produced before the budget ran out — each one a
    sound member of the union. *)

val answers :
  ?guard:Guard.t ->
  Program.t ->
  Mdqa_relational.Instance.t ->
  Query.t ->
  Mdqa_relational.Tuple.t list Guard.outcome
(** Rewrite, evaluating each disjunct on the extensional instance under
    the same fork as soon as it is produced (no containment pruning: a
    pruned disjunct's answers are a subset of another's); null-free
    answers only, sorted and deduplicated.  The disjunct cap is
    {!rewrite}'s.  [Degraded] answers are a sound under-approximation:
    those of the disjuncts evaluated before the trip. *)

val pp_rewriting : Format.formatter -> rewriting -> unit
