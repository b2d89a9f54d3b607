(** Relations: mutable sets of tuples under a schema, with composite-key
    hash indexes and cached per-position statistics.

    A relation enforces the arity of its schema on insertion.  Exact
    lookups on any set of positions ({!probe}) go through an index
    keyed by that position list, built on first use and maintained on
    insertion, so the workhorse lookups of conjunctive-query evaluation
    and of the chase never scan.  {!distinct} gives the statistics the
    join planner estimates result sizes from. *)

type t

val create : Rel_schema.t -> t
(** Fresh empty relation. *)

val of_tuples : Rel_schema.t -> Tuple.t list -> t
(** The tuples' relation, built by one sort ([Tuple.Set.of_list]), not
    one {!add} per tuple.  @raise Invalid_argument as {!add} would, at
    the first tuple whose arity is not the schema's. *)

val schema : t -> Rel_schema.t
val name : t -> string
val arity : t -> int
val cardinal : t -> int
val is_empty : t -> bool

val add : t -> Tuple.t -> bool
(** [add r t] inserts [t]; returns [true] iff [t] was not present.
    @raise Invalid_argument on arity mismatch ({!check_arity}). *)

val check_arity : t -> Tuple.t -> unit
(** @raise Invalid_argument if the tuple's arity is not the relation's. *)

val union : t -> t -> unit
(** [union r s] adds every tuple of [s] to [r].  Into an empty [r] it
    is O(1): [r] takes [s]'s persistent tuple set as it is (and its
    distinct counts), so the two share one set until either changes;
    {!add}, {!remove} and {!substitute} on one leave the other as it
    was.  Into a non-empty [r]: one set union ({!add}s if it has indexes).
    @raise Invalid_argument if the arities differ. *)

val mem : t -> Tuple.t -> bool
val remove : t -> Tuple.t -> bool
(** Returns [true] iff the tuple was present. *)

val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Tuple.t list
(** Tuples in ascending order (deterministic). *)

val to_set : t -> Tuple.Set.t

val probe : t -> (int * Value.t) list -> Tuple.t list
(** [probe r binding] returns exactly the tuples agreeing with every
    [(pos, v)] pair of [binding], through one hash lookup in the index
    keyed by the binding's position list (built on the first probe of
    that list, so callers should list positions in one order, e.g.
    ascending; a binding of every position in order is a membership
    test and builds none).  [probe r \[\]] lists all tuples in ascending
    order; a probe bucket is in no particular order. *)

val index : t -> int list -> Tuple.t -> Tuple.t list
(** [index r ps] is {!probe} on the positions [ps] as a function of the
    key values (in the order of [ps]), resolving the index once for
    every call (it is refetched only after a {!remove} or {!substitute}
    dropped it).  The key is only read, so a caller may reuse one
    buffer for every lookup. *)

val distinct : t -> int -> int
(** [distinct r pos] is the number of distinct values at position
    [pos].  Counted in one pass and cached: recounted once the
    cardinality has doubled or halved since the last count, and
    dropped, like the indexes, by {!remove} and by a {!substitute} that
    moves a tuple.
    Counting builds no index. *)

val substitute : t -> Value.t Value.Map.t -> Tuple.Set.t
(** [substitute r sigma] rewrites, in place and simultaneously, every
    value of [r] that is a key of [sigma] to its binding, and returns
    the images of the tuples it moved (some may coincide with tuples
    already present).  Only tuples mentioning a key are touched; a
    relation with none keeps its indexes and distinct counts. *)

val copy : t -> t
(** [copy r] is a fresh relation sharing [r]'s tuple set ({!union}
    into an empty relation): O(1), and independent of [r] from then
    on. *)

val equal : t -> t -> bool
(** Same schema and same tuple set. *)

val pp : Format.formatter -> t -> unit
