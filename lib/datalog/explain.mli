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
  fires : int;
  triggers : int;
  matches : int;
  seconds : float;
  body : atom_cost list;  (** in body order *)
}

val cost : Mdqa_obs.Profile.snapshot -> Tgd.t list -> rule_cost list
(** One {!rule_cost} per TGD (zeroed when the profiler never saw the
    rule), hottest first. *)

val pp_rule_cost : Format.formatter -> rule_cost -> unit
val pp_cost : Format.formatter -> rule_cost list -> unit
(** EXPLAIN-style plan view:
    {v
    rule7_patient_unit  fires=12 triggers=40 matches=40 time=0.000412s
      [0] PatientUnit(p, u)  visits=40 scanned=120 matched=40 fan-out=1.000
        selectivity=0.333
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
