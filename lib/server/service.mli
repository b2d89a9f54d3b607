(** The warm query engine behind [mdqa serve].

    The paper's tractability argument (QA over weakly-sticky ontologies
    is PTIME in data complexity) only pays off if the chase fixpoint is
    computed {e once} and kept warm: a service loads an ontology —
    preferring a crash-safe store snapshot when one exists — chases to
    fixpoint under the server guard, and then answers every query by
    plain evaluation over the materialized instance.

    Robustness contract:
    - {!query} never raises: query syntax errors, unknown predicates,
      budget trips and an inconsistent ontology all come back as
      values.
    - Each request runs under a {!Mdqa_datalog.Guard.fork} of the
      server guard, so one hostile query can exhaust {e its} budget but
      not the server's.
    - Checkpoint writes go through a {!Breaker}: repeated I/O failures
      trip it open and the service keeps answering from memory —
      stale-but-consistent — probing the disk again after a backoff. *)

type t

val load :
  ?guard:Mdqa_datalog.Guard.t ->
  ?breaker:Breaker.t ->
  ?store:string ->
  ?metrics:Mdqa_obs.Metrics.t ->
  ?checkpoint_every:int ->
  ?keep_generations:int ->
  ?program_file:string ->
  unit ->
  (t, Mdqa_datalog.Diag.t list) result
(** Bring the service up.  When [store] names an existing snapshot the
    service warm-starts from it ([Store.resume]: replay + chase on to
    fixpoint) and [program_file] is not read; otherwise [program_file]
    is validated, chased (checkpointing into [store] when given), and
    served.  Validation or recovery failure is the returned diagnostic
    list.  [checkpoint_every] (default 64, [0] disables) is the cadence,
    in requests, of {!request_served}'s check that the disk still holds
    the fixpoint — self-healing if the on-disk image is lost or the
    disk recovers after failures. *)

val load_replica :
  ?guard:Mdqa_datalog.Guard.t ->
  ?breaker:Breaker.t ->
  ?metrics:Mdqa_obs.Metrics.t ->
  ?checkpoint_every:int ->
  ?keep_generations:int ->
  store:string ->
  unit ->
  (t, Mdqa_datalog.Diag.t list) result
(** Bring a {e standby's} service up from a store the replication layer
    just installed.  Unlike {!load}, nothing is re-chased and nothing
    is written — [Store.resume] would compact the journal and rewrite
    the snapshot, destroying the byte-identity with the primary that
    replication maintains.  The service is a standby: it never writes
    the store (the primary owns the bytes) until {!promote}. *)

val store_path : t -> string option
(** The snapshot path of the attached store, if any — what the
    replication source ships and the follower installs into. *)

val install_snapshot : t -> Mdqa_store.Snapshot.t -> unit
(** Replace the warm fixpoint wholesale (a standby following a
    snapshot-epoch change). *)

val apply_replicated : t -> Mdqa_store.Journal.record list -> unit
(** Replay freshly shipped journal records into the warm instance —
    the in-memory mirror of on-disk journal replay. *)

val promote : t -> unit
(** A standby takes ownership of the store file: periodic checks start
    and one checkpoint is forced at once, so the new primary's
    authority over the bytes is durable. *)

type query_outcome =
  | Answers of Mdqa_relational.Tuple.t list
      (** complete ({!Mdqa_datalog.Answer.Ok}) *)
  | Partial of Mdqa_relational.Tuple.t list * Mdqa_datalog.Guard.exhaustion
      (** {!Mdqa_datalog.Answer.Degraded}: a budget ran out (theirs or
          the warm chase's); the answers found before it, a sound
          under-approximation *)
  | Bad_query of Mdqa_datalog.Diag.t
      (** the query parser's own code ({!Mdqa_datalog.Parser.Error}:
          E002, E003, E011, ...), E012, or E033
          ({!Mdqa_datalog.Answer.Refused}): reply error *)
  | Inconsistent of string
      (** {!Mdqa_datalog.Answer.Inconsistent}: the program fails a
          constraint (found by the warm chase, or by the proof or
          rewrite engine's own check); no meaningful answers *)

val query :
  t ->
  ?timeout:float ->
  ?max_steps:int ->
  engine:Mdqa_datalog.Answer.engine ->
  string ->
  query_outcome
(** Answer one query given in surface syntax.  The chase engine reads
    the warm fixpoint ({!Mdqa_datalog.Answer.of_fixpoint}); the others
    run {!Mdqa_datalog.Answer.answer} over the base facts, which checks
    consistency through the engine itself.  [timeout]/[max_steps] bound
    this request via a guard fork, whatever the engine; the fork's
    consumption is not charged back to the server guard, so requests
    can never spend the server's budgets.  Never raises. *)

val request_served : t -> unit
(** Count one served request.  Every [checkpoint_every]-th one checks
    the disk: no request changes the warm fixpoint, so the snapshot is
    rewritten (a breaker-guarded {!checkpoint}) only when it may be
    missing — the fixpoint never persisted, the breaker not closed, or
    the file at the store path not the one last written
    ({!Mdqa_store.Store.image_id}: unlinked, replaced, rewritten).
    Otherwise the check is one [stat].  Standbys never write. *)

val checkpoint :
  t ->
  force:bool ->
  [ `Written of int  (** bytes *)
  | `Breaker_open of float  (** skipped; retry at (clock time) *)
  | `Failed of string
  | `No_store ]
(** Snapshot the warm fixpoint through the circuit breaker.  [force]
    ignores an open breaker (the final drain checkpoint gets one last
    try regardless of history). *)

val health_fields : t -> (string * Jsonl.t) list
(** The service half of a health reply: warm-chase outcome, fixpoint
    age and size, guard consumption, breaker state, store status,
    requests served. *)

val ready : t -> bool * string
(** Is the service able to answer completely right now?  [false] comes
    with a reason (inconsistent ontology, degraded fixpoint). *)

val requests : t -> int
val breaker : t -> Breaker.t

val metrics : t -> Mdqa_obs.Metrics.t
(** The service-lifetime metrics registry: the warm chase and the store
    record into it ([mdqa_chase_*], [mdqa_store_*]), the server layers
    its request instruments on top ([mdqa_server_*]). *)

val record_metrics : t -> unit
(** Refresh scrape-time gauges in {!metrics}: guard consumption
    ([mdqa_guard_*]), breaker state/trips, fixpoint facts/age/persisted
    and requests served.  Called before rendering an exposition. *)

val warm_saturated : t -> bool
(** Did the warm chase reach a true fixpoint? *)

val close : t -> unit
(** Release the store handle (idempotent). *)
