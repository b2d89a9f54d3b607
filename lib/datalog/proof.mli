(** [DeterministicWSQAns]: deterministic top-down query answering for
    weakly-sticky Datalog± (paper §IV).

    The algorithm searches for accepting resolution proof schemas: the
    query atoms are resolved left to right, each either by matching a
    ground fact of the extensional database, or by applying a TGD whose
    (renamed-apart) head unifies with the atom, pushing the TGD body as
    new subgoals.  Decisions are kept on an explicit stack (here: the
    OCaml call stack of a backtracking search) and undone on failure.

    Existential head variables are instantiated with fresh labeled
    nulls before unification, so an existential can witness a query
    variable but can never equal an extensional constant.  When a rule
    with a multi-atom head is applied, the sibling head atoms of the
    same application are recorded as {e lemmas} available to later
    goals — this is what makes proofs involving one shared null across
    several atoms (rule (10) of the paper) complete.

    Open queries are answered by the same search: answer variables pick
    up constants while matching database facts, exactly as the paper
    describes ("possible substitutions ... are derived by the ground
    atoms in the extensional database").  Answers containing nulls are
    not certain and are filtered.

    EGDs and negative constraints are not used by the search:
    {!Answer.answer} runs it only on programs whose EGDs are separable
    ({!Analysis.scope}), and checks their consistency through this
    same search first.

    Proof depth is polynomially bounded for WS programs; a fixed depth
    of 32 rule applications per branch bounds it here as engineering
    safety.  A search that pruned a branch at that depth may have
    missed answers, so it is reported as a {!Guard.Depth} exhaustion,
    never as complete. *)

val answer :
  ?guard:Guard.t ->
  Program.t ->
  Mdqa_relational.Instance.t ->
  Query.t ->
  Mdqa_relational.Tuple.t list Guard.outcome
(** Certain answers (null-free head images), sorted, deduplicated;
    [Degraded] with the answers found so far when a budget stopped the
    search, or when a branch was pruned at the depth bound.  Every
    resolution step is one step of a {!Guard.fork} of [guard] capped at
    2,000,000 steps: the caller's step budget, deadline, memory
    watermark and cancellation bound the search too, and its steps are
    charged back to [guard] ({!Guard.absorb}), where the caller reads
    them.  Running out is a {!Guard.Steps} exhaustion reporting the
    fork's limit: what was left of [guard]'s step budget, or the cap.
    The fork copies [guard]'s cancellation flag when it is made, so a
    later {!Guard.cancel} does not reach a search under way. *)

val entails :
  Program.t ->
  Mdqa_relational.Instance.t ->
  Query.t ->
  bool
(** Boolean conjunctive query answering: is there an accepting
    resolution proof schema?  (short-circuits on the first proof;
    [false] when the 2,000,000-step cap stops the search first) *)
