(** Multidimensional contexts for data quality assessment (paper §V,
    Fig. 2).

    A context [C] is the formal theory a database under assessment is
    mapped into.  It bundles:

    - the multidimensional ontology M ({!Mdqa_multidim.Md_ontology});
    - {e mappings} sending each relation [S_i] of the original instance
      D to a contextual copy (the paper's [Measurementsᶜ]; D is a
      footprint of the broader contextual relation);
    - {e contextual rules}: Datalog± TGDs defining auxiliary contextual
      predicates, quality predicates [P_i] (e.g. [TakenByNurse],
      [TakenWithTherm]) and the {e quality versions} [S_i^q];
    - {e external sources} [E_i]: closed relations injected into the
      contextual instance.

    Assessment runs the chase of M ∪ contextual rules over the combined
    instance; quality versions and quality query answers are read off
    the chased instance.  Queries over the original schema are
    rewritten by substituting each [S_i] with [S_i^q] ({!rewrite_query}
    — the paper's [Q ↦ Q^q]). *)

type mapping = {
  source : string;  (** relation name in the original instance D *)
  target : string;  (** its contextual copy's predicate name *)
}

type t = private {
  ontology : Mdqa_multidim.Md_ontology.t;
  mappings : mapping list;
  rules : Mdqa_datalog.Tgd.t list;
  externals : Mdqa_relational.Relation.t list;
  quality_versions : (string * string) list;
      (** (original relation, its quality-version predicate) *)
}

val make :
  ontology:Mdqa_multidim.Md_ontology.t ->
  ?mappings:mapping list ->
  ?rules:Mdqa_datalog.Tgd.t list ->
  ?externals:Mdqa_relational.Relation.t list ->
  ?quality_versions:(string * string) list ->
  unit ->
  t
(** @raise Invalid_argument on the first duplicate mapping source or
    quality-version entry, in declaration order. *)

val program : t -> Mdqa_datalog.Program.t
(** M's rules plus the contextual rules (no facts). *)

val prepare : t -> source:Mdqa_relational.Instance.t -> Mdqa_relational.Instance.t
(** The combined pre-chase contextual instance: M's compiled instance,
    the external sources and the mapped copies of [source].  This is
    what {!assess} chases; exposed so repairs can edit it first.
    Externals and mapped copies take their source relation's tuple set
    as it is ({!Mdqa_relational.Relation.union}), so preparing copies
    no tuple, and what the chase or a repair changes in the result
    never reaches [source] or the context. *)

type assessment = {
  context : t;
  chase : Mdqa_datalog.Chase.result;
  source : Mdqa_relational.Instance.t;  (** the assessed instance D *)
}

val assess :
  ?provenance:bool ->
  ?guard:Mdqa_datalog.Guard.t ->
  ?metrics:Mdqa_obs.Metrics.t ->
  t ->
  source:Mdqa_relational.Instance.t ->
  assessment
(** Combine M's instance, the mapped copies of [source] and the
    external sources; chase under M's program plus the contextual
    rules.  The chase outcome (including constraint violations) is in
    [chase].  With [provenance], {!explain} can reconstruct why a tuple
    is in a quality version.

    Resource governance: the [guard] bounds the whole assessment chase.
    On any trip the assessment is still returned — {!degradation}
    reports the exhausted resource, and {!quality_version} /
    {!clean_answers} with [~partial:true] read the partial chase. *)

val assess_prepared :
  ?provenance:bool ->
  ?guard:Mdqa_datalog.Guard.t ->
  ?metrics:Mdqa_obs.Metrics.t ->
  t ->
  source:Mdqa_relational.Instance.t ->
  prepared:Mdqa_relational.Instance.t ->
  assessment
(** Like {!assess} but chases a caller-supplied combined instance
    (normally an edited {!prepare} result). *)

val degradation : assessment -> Mdqa_datalog.Guard.exhaustion option
(** The exhaustion report if the assessment chase ran out of a
    resource; [None] when it saturated or failed on a constraint. *)

val assess_incremental :
  ?guard:Mdqa_datalog.Guard.t ->
  assessment ->
  added:(string * Mdqa_relational.Tuple.t) list ->
  assessment
(** Incremental re-assessment after new tuples arrive in the original
    instance D: [added] pairs relation names of D with new tuples.  The
    mapped contextual copies are computed and the chase is {e extended}
    from the prior result ({!Mdqa_datalog.Chase.Extend}) — work is
    proportional to the consequences of the new data.  The prior
    assessment must be saturated; otherwise a full {!assess} runs. *)

val quality_version :
  ?partial:bool ->
  assessment -> string -> Mdqa_relational.Relation.t option
(** [quality_version a s] is the computed extension [S^q] for original
    relation [s]: the null-free tuples of its quality-version
    predicate in the chased instance, presented under [s]'s schema
    (problem (a) of §V).  [None] if [s] has no declared quality
    version or the chase failed.  With [partial] (off by default), a
    budget-degraded chase yields the quality version computed so far —
    a sound under-approximation; a constraint-failed chase still
    yields [None]. *)

val rewrite_query : t -> Mdqa_datalog.Query.t -> Mdqa_datalog.Query.t
(** Substitute quality-version predicates for original ones ([Q^q]). *)

val clean_answers :
  ?partial:bool ->
  assessment -> Mdqa_datalog.Query.t -> Mdqa_relational.Tuple.t list option
(** Quality answers to a query over the original schema: rewrite with
    {!rewrite_query}, evaluate certain answers on the chased instance
    (problem (b) of §V).  [None] if the chase failed.  With [partial],
    a budget-degraded chase yields the answers supported so far. *)

val explain :
  assessment ->
  string ->
  Mdqa_relational.Tuple.t ->
  (Mdqa_datalog.Explain.tree, string) result
(** [explain a s t]: the derivation of tuple [t] of [s]'s quality
    version — why the tuple was deemed up to quality.  Requires the
    assessment to have been run with [~provenance:true]. *)
