(** Quality measures: how much an instance departs from its quality
    version (the metric view of Bertossi–Rizzolo–Lei that the paper's
    framework inherits).

    For an original relation S and its computed quality version S^q
    (with S^q ⊆ S for cleaning-style contexts):
    - [quality_ratio] = |S ∩ S^q| / |S| — the fraction of the data that
      is up to the quality requirements (1.0 for empty S);
    - [departure] = |S \ S^q| + |S^q \ S| — the symmetric-difference
      distance between the instance and its quality version. *)

type relation_report = {
  relation : string;
  original_size : int;
  quality_size : int;
  kept : int;  (** |S ∩ S^q| *)
  removed : int;  (** |S \ S^q| — tuples failing the requirements *)
  added : int;  (** |S^q \ S| — tuples generated by completion *)
  ratio : float;
}

val compare_relations :
  original:Mdqa_relational.Relation.t ->
  quality:Mdqa_relational.Relation.t ->
  relation_report
(** @raise Invalid_argument on arity mismatch. *)

val quality_ratio :
  original:Mdqa_relational.Relation.t ->
  quality:Mdqa_relational.Relation.t ->
  float

val departure :
  original:Mdqa_relational.Relation.t ->
  quality:Mdqa_relational.Relation.t ->
  int

val report : ?partial:bool -> Context.assessment -> relation_report list
(** One report per declared quality version (relations whose quality
    version could not be computed are skipped).  With [partial], a
    budget-degraded assessment reports against the quality versions
    computed so far ({!Context.quality_version} with [~partial:true]);
    ratios are then lower bounds. *)

val pp_report : Format.formatter -> relation_report list -> unit
