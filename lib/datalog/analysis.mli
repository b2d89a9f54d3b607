(** The static analysis of a program: the position graph, the sticky
    marking, the Datalog± classes, EGD separability, and from them the
    scope of each query-answering engine — computed once per program,
    read by [mdqa classify], the [W041]/[H050] diagnostics and
    {!Answer.answer}.

    {b Position graph} (Fagin et al.; Calì–Gottlob–Pieris).  Nodes are
    positions [(pred, i)].  For every TGD and every frontier variable
    [x] at body position [πb]: an {e ordinary} edge [πb → πh] to every
    head occurrence [πh] of [x], and a {e special} edge [πb → πz] to
    every head position [πz] of an existential variable.  Positions
    reachable from a special edge lying on a cycle have {e infinite
    rank}; the others (∏_F) have finite rank.

    {b Sticky marking}.  Base step: in each TGD, mark the body
    variables absent from the head.  Propagation: when a frontier
    variable of a TGD occurs in its head at a position carrying a
    marked body occurrence of any TGD, mark it in that TGD; repeat to
    fixpoint.  {e Sticky}: no marked variable repeats in a body.
    {e Weakly sticky}: every repeated marked variable has a body
    occurrence at a finite-rank position.

    {b EGD separability} (paper §III).  EGDs and TGDs are separable
    when query answering may ignore EGDs that the extensional instance
    satisfies.  Two sufficient conditions: every equated variable
    occurs in the EGD body only at non-affected positions (no labeled
    null can reach it), or only at positions of a closed set (the
    multidimensional layer passes its categorical positions). *)

type position = string * int

module Pos_set : Set.S with type elt = position

type engine = Chase | Proof | Rewrite

val engine_name : engine -> string

type classes = {
  linear : bool;  (** every TGD has one body atom *)
  guarded : bool;  (** a body atom holds all body variables *)
  weakly_guarded : bool;
      (** a body atom holds all variables occurring only at affected
          positions *)
  sticky : bool;
  weakly_sticky : bool;
  weakly_acyclic : bool;
      (** no cycle through a special edge: the chase terminates *)
  warded : bool;
      (** the dangerous variables (only at affected body positions,
          and in the head) share one body atom, the ward, which shares
          only harmless variables with the rest (the Vadalog core) *)
}
(** Inclusions: linear ⊆ guarded ⊆ weakly guarded, sticky ⊆ weakly
    sticky, weakly acyclic ⊆ weakly sticky. *)

type separability = { separable : bool; offending : (Egd.t * string) list }

type t = private {
  program : Program.t;
  infinite_rank : Pos_set.t;
  affected : Pos_set.t;
      (** where the chase may place a labeled null: the positions of
          existential variables, closed under frontier variables
          occurring in a body only at affected positions *)
  marked : (string * Term.Var_set.t) list;
      (** the marked variables of each TGD, by rule name *)
  violations : (Tgd.t * string) list;
      (** weak-stickiness witnesses: a rule and a marked variable
          repeated in its body with no finite-rank occurrence *)
  classes : classes;
  egds : separability;  (** by the non-affected-positions condition *)
  acyclic : bool;  (** {!Program.predicate_graph_acyclic} *)
}

val analyse : Program.t -> t

val is_marked : t -> Tgd.t -> string -> bool

val marked_positions : t -> position list
(** Positions carrying a marked body occurrence, sorted. *)

val within_positions : Program.t -> closed:position list -> separability
(** EGD separability by the closed-set condition. *)

val scope : t -> engine -> (unit, string) result
(** Whether an engine's answers are the certain answers, and if not,
    why.  [Chase] always is.  [Proof] ([DeterministicWSQAns]) needs a
    weakly-sticky program and [Rewrite] an acyclic predicate graph;
    both ignore EGDs, so both also need [egds.separable]. *)

val qa_path : t -> string
(** The first engine in scope among rewrite, proof and chase, as the
    [H050] hint words it; when it is the chase, with the reason the
    proof search is out of scope. *)

val pp_classes : Format.formatter -> classes -> unit
val pp_separability : Format.formatter -> separability -> unit

val pp : Format.formatter -> t -> unit
(** The [mdqa classify] report: classes, ranks, affected positions,
    separability, each engine's scope and the justified path. *)
