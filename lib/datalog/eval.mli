(** Evaluation of conjunctive atom lists over an instance.

    This is the workhorse shared by conjunctive-query answering, TGD
    trigger enumeration, and EGD / negative-constraint checking: find
    all substitutions θ such that every atom of the body, instantiated
    by θ, is a fact of the instance, and every comparison holds.

    Each call plans its body once, on entry (once per delta position
    for a semi-naive {!iter_matches}), and then runs the plan as a backtracking
    loop; nothing is re-planned during the search.  The plan is a
    left-deep join order chosen by a DP over atom subsets that
    minimises the summed estimated tuples walked per step, estimated
    System R style from each relation's cardinality and per-position
    {!Mdqa_relational.Relation.distinct} counts (positions assumed
    independent).  A strict roll-up such as [day_time(Day, Time)] thus
    estimates to one tuple per probe on [Time] without the evaluator
    knowing about dimensions.  Each step reads its atom by a full scan,
    the semi-naive delta list, or an exact
    {!Mdqa_relational.Relation.index} lookup (resolved once per plan,
    its key buffer reused) on a composite key over all of its bound
    positions.  It keeps variables in slots and checks repeated
    variables and every comparison at the first step where it is
    ground.  {!iter_matches} hands out the slots themselves (the chase
    and {!Query} project rule and query heads from them); the
    [Subst.t] entry points build one per match from the slots.

    Every entry point takes an optional {!Guard.t}: each emitted match
    consumes one row of the guard's row budget and every candidate
    tuple ticks the deadline / memory / cancellation check, so a join
    explosion surfaces as {!Guard.Exhausted} instead of unbounded time
    or memory.
    Under an open {!Mdqa_obs.Profile} scope each visit of a step is
    credited to its atom's source position, with the step's position
    in the plan and its access path. *)

val slot_vars : Atom.t list -> string array
(** A body's variables by first occurrence (atoms in source order): the
    slot numbering of every plan of the body. *)

val iter_matches :
  ?guard:Guard.t ->
  ?cmps:Atom.Cmp.t list ->
  ?delta:(string -> Mdqa_relational.Tuple.t list) ->
  Mdqa_relational.Instance.t ->
  Atom.t list ->
  (Mdqa_relational.Value.t array -> unit) ->
  unit
(** [iter_matches inst body f] calls [f] on each match, in {!answers}'
    order, as the values of [slot_vars body] in an array the search
    overwrites after [f] returns.  With [delta] (the delta facts of
    each predicate, each once), only the matches instantiating some
    atom to a delta fact: the chase's semi-naive restriction.  A delta
    position with none of its variables bound walks the delta list,
    not the relation, and the list sizes feed the estimates.
    @raise Guard.Exhausted when the guard trips. *)

val prober :
  ?guard:Guard.t ->
  Mdqa_relational.Instance.t ->
  bound:string array ->
  Atom.t list ->
  Mdqa_relational.Value.t array ->
  bool
(** [prober inst ~bound atoms values]: do [atoms] have a match
    extending [values] of the variables [bound]?  Planned once, with
    [bound] bound before the first step, at the first call at which
    every relation read is non-empty; later calls reuse the plan.
    Guard accounting is {!exists}'. *)

val answers :
  ?guard:Guard.t ->
  ?cmps:Atom.Cmp.t list ->
  Mdqa_relational.Instance.t ->
  Atom.t list ->
  Subst.t list
(** All matching substitutions (deterministic order, no duplicates
    modulo the body's variables).  Comparisons are applied as soon as
    both sides are ground; one over a variable the body does not bind
    never holds.  Atoms over predicates absent from the instance yield
    no answers.
    @raise Guard.Exhausted when the guard trips. *)

val exists :
  ?guard:Guard.t ->
  ?cmps:Atom.Cmp.t list ->
  Mdqa_relational.Instance.t ->
  Atom.t list ->
  bool
(** Is there at least one match? (short-circuiting)
    @raise Guard.Exhausted when the guard trips. *)

val first :
  ?guard:Guard.t ->
  ?cmps:Atom.Cmp.t list ->
  Mdqa_relational.Instance.t ->
  Atom.t list ->
  Subst.t option

val holds_fact : Mdqa_relational.Instance.t -> Atom.t -> bool
(** Ground-atom membership. @raise Invalid_argument on non-ground. *)
