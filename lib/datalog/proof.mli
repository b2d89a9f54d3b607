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

    EGDs and negative constraints are not used by the search: apply it
    to programs whose EGDs are separable (see {!Separability}) and
    whose consistency has been checked (e.g. by {!Chase.run}).

    Proof depth is polynomially bounded for WS programs; [max_depth]
    bounds rule applications per branch and [max_steps] bounds the
    total search as engineering safety.  A search that pruned a branch
    at [max_depth] may have missed answers, so it is reported as a
    {!Guard.Depth} exhaustion, never as complete.  A {!Guard.t} bounds its wall
    time, memory and cancellation like every other engine's. *)

type result = {
  answers : Mdqa_relational.Tuple.t list Guard.outcome;
      (** certain answers (null-free head images), sorted, deduplicated;
          [Degraded] with the answers found so far when [max_steps] or
          the guard stopped the search, or when a branch was pruned at
          [max_depth] *)
  steps : int;  (** resolution steps performed *)
}

val answer :
  ?guard:Guard.t ->
  ?max_depth:int ->
  ?max_steps:int ->
  Program.t ->
  Mdqa_relational.Instance.t ->
  Query.t ->
  result
(** Defaults: [max_depth] 32, [max_steps] 2_000_000.  Every resolution
    step ticks [guard] ({!Guard.tick}: deadline, memory watermark,
    cancellation) but is not charged to its step budget; [max_steps]
    is the search's own, and running past it is reported as a
    {!Guard.Steps} exhaustion. *)

val entails :
  ?max_depth:int ->
  ?max_steps:int ->
  Program.t ->
  Mdqa_relational.Instance.t ->
  Query.t ->
  bool
(** Boolean conjunctive query answering: is there an accepting
    resolution proof schema?  (short-circuits on the first proof;
    [false] when the search is stopped first) *)
