(** Derivation trees: why is a fact in the chased instance?

    Built from the provenance recorded by
    [Chase.run ~provenance:true ...].  In a quality-assessment context
    this answers "why was this measurement deemed up to quality": the
    tree bottoms out in extensional facts (the recorded data, the
    dimension structure) and each internal node names the dimensional
    or contextual rule that fired. *)

type tree = {
  fact : string * Mdqa_relational.Tuple.t;
  rule : string option;
      (** [None] for extensional facts, [Some rule_name] otherwise *)
  premises : tree list;
}

val why :
  Chase.result -> string -> Mdqa_relational.Tuple.t -> (tree, string) result
(** [why result pred tuple] reconstructs the derivation of the fact.
    [Error] if the chase was run without provenance or the fact is not
    in the chased instance. *)

val depth : tree -> int
(** Longest rule chain in the tree (an extensional fact has depth 0). *)

val rules_used : tree -> string list
(** Rule names appearing in the tree, deduplicated, sorted. *)

val extensional_support : tree -> (string * Mdqa_relational.Tuple.t) list
(** The extensional leaves the fact ultimately rests on (deduplicated,
    sorted). *)

(** {1 Cost explanation}

    The same vocabulary pointed at cost instead of derivation: where
    [why] explains why a fact holds, [cost] explains where evaluation
    time and join work went, per rule and per body atom, from a
    {!Mdqa_obs.Profile} snapshot. *)

type atom_cost = {
  atom : Atom.t;
  atom_idx : int;  (** source position in the rule body *)
  stat : Mdqa_obs.Profile.atom_stat;
      (** visits, tuples scanned and substitutions passed on *)
}

type rule_cost = {
  rule_name : string;
  rule : Mdqa_obs.Profile.rule_stat;  (** counts and the time split *)
  body : atom_cost list;
      (** in body order; {!pp_cost} prints them in executed order *)
}

val cost : Mdqa_obs.Profile.snapshot -> Tgd.t list -> rule_cost list
(** One {!rule_cost} per TGD (zeroed when the profiler never saw the
    rule), hottest first. *)

val pp_cost : Format.formatter -> rule_cost list -> unit
(** EXPLAIN-style plan view: the body atoms in the order the join ran
    them (by {!Mdqa_obs.Profile.atom_stat.step}; [[i]] is still the
    source position), each with the access path its step used:
    {v
    measurements_q/3  fires=2120 triggers=2120 matches=2120 time=0.022677s
      (enumerate=0.019274s probe=0.000700s insert=0.002478s other=0.000225s)
      [3] std_unit(U)  scan visits=2 scanned=2 matched=2 fan-out=1.000 ...
      [4] working_schedules(U, D, N, cert.)  key=(0,3) visits=2 scanned=80
        matched=80 fan-out=40.000 selectivity=1.000
      [1] day_time(D, T)  key=(0) visits=80 scanned=12800 ...
      [0] measurements_c(T, P, V)  key=(0) visits=12800 scanned=12800
        matched=12800 fan-out=1.000 selectivity=1.000
      ...
    v} *)

val pp : Format.formatter -> tree -> unit
(** Indented rendering:
    {v
    measurements_q(Sep/5-12:10, Tom Waits, 38.2)   [measurements_q]
      measurements_ext(...)                        [measurements_ext]
        measurements_c(...)                        (extensional)
        ...
    v} *)
