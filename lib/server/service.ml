open Mdqa_datalog
module R = Mdqa_relational
module Store = Mdqa_store.Store
module Snapshot = Mdqa_store.Snapshot
module Journal = Mdqa_store.Journal
module Metrics = Mdqa_obs.Metrics

type t = {
  program : Program.t;
  base : R.Instance.t;  (** extensional facts, for proof/rewrite *)
  mutable warm : Chase.result;  (** the materialized fixpoint *)
  guard : Guard.t;
  store : Store.t option;
  breaker : Breaker.t;
  metrics : Metrics.t;  (** service-lifetime registry *)
  mutable checkpoint_every : int;  (** 0 in worker children: the parent owns the disk *)
  mutable saved_checkpoint_every : int;
      (** what {!disable_periodic_checkpoints} hid, for a promoted
          standby to restore *)
  mutable fixpoint_at : float;  (** Guard.Clock time of materialization *)
  mutable requests : int;
  mutable last_checkpoint_error : string option;
  mutable persisted : bool;  (** the current fixpoint reached the disk *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let mk ~program ~base ~warm ~guard ~store ~breaker ~metrics ~checkpoint_every
    =
  { program;
    base;
    warm;
    guard;
    store;
    breaker;
    metrics;
    checkpoint_every;
    saved_checkpoint_every = 0;
    fixpoint_at = Guard.Clock.now ();
    requests = 0;
    last_checkpoint_error = None;
    persisted = false }

let diag_of_store_error path e =
  [ Diag.make ~file:path Diag.Error ~code:"E023"
      (Format.asprintf "%a" Store.pp_load_error e) ]

let load ?guard ?breaker ?store ?metrics ?(checkpoint_every = 64)
    ?keep_generations ?program_file () =
  let guard = match guard with Some g -> g | None -> Guard.unlimited () in
  let breaker = match breaker with Some b -> b | None -> Breaker.create () in
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let warm_start path =
    match Store.resume ~guard ~metrics ~path () with
    | Error e -> Error (diag_of_store_error path e)
    | Ok (warm, recovery) ->
      (* Re-parse the stored program for the proof/rewrite engines and
         open a fresh handle for the service's own checkpoints. *)
      let parsed = Parser.parse_string recovery.Store.program_text in
      let program = parsed.Parser.program in
      let base = Program.instance_of_facts program in
      let st =
        Store.create ~guard ~metrics ?keep_generations ~path
          ~program_text:recovery.Store.program_text
          ~variant:recovery.Store.variant ()
      in
      Ok
        (mk ~program ~base ~warm ~guard ~store:(Some st) ~breaker ~metrics
           ~checkpoint_every)
  in
  let cold_start file =
    let { Validate.parsed; diags } = Validate.check_file file in
    match parsed with
    | None ->
      Error (List.filter (fun d -> d.Diag.severity = Diag.Error) diags)
    | Some { Parser.program; _ } ->
      let base = Program.instance_of_facts program in
      let st =
        Option.map
          (fun path ->
            Store.create ~guard ~metrics ?keep_generations ~path
              ~program_text:(read_file file) ~variant:Chase.Restricted ())
          store
      in
      let warm =
        Chase.run ~guard ~metrics
          ?checkpoint:(Option.map Store.checkpoint st)
          program base
      in
      let svc =
        mk ~program ~base ~warm ~guard ~store:st ~breaker ~metrics
          ~checkpoint_every
      in
      (match Option.bind st Store.write_error with
       | None -> svc.persisted <- st <> None
       | Some e ->
         Breaker.record_failure breaker;
         svc.last_checkpoint_error <- Some (Printexc.to_string e));
      Ok svc
  in
  match (store, program_file) with
  | Some path, _ when Sys.file_exists path -> warm_start path
  | _, Some file -> cold_start file
  | Some path, None -> Error (diag_of_store_error path (Store.No_store path))
  | None, None ->
    Error
      [ Diag.make Diag.Error ~code:"E024"
          "nothing to serve: no program file and no store snapshot" ]

(* A standby's service: warm-start from whatever the replication layer
   installed on disk, WITHOUT the resume machinery — [Store.resume]
   would re-chase and compact, rewriting the very files that must stay
   byte-identical to the primary's.  [Store.load] replays the
   journal's valid prefix over the snapshot and writes nothing; the
   inert store handle exists so a promotion can start checkpointing. *)
let load_replica ?guard ?breaker ?metrics ?(checkpoint_every = 64)
    ?keep_generations ~store:path () =
  let guard = match guard with Some g -> g | None -> Guard.unlimited () in
  let breaker = match breaker with Some b -> b | None -> Breaker.create () in
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  match Store.load ~path with
  | Error e -> Error (diag_of_store_error path e)
  | Ok r ->
    let parsed = Parser.parse_string r.Store.program_text in
    let program = parsed.Parser.program in
    let base = Program.instance_of_facts program in
    let warm =
      { Chase.instance = r.Store.instance;
        outcome = Chase.Saturated;
        stats = r.Store.stats;
        provenance = None }
    in
    let st =
      Store.create ~guard ~metrics ?keep_generations ~path
        ~program_text:r.Store.program_text ~variant:r.Store.variant ()
    in
    let svc =
      mk ~program ~base ~warm ~guard ~store:(Some st) ~breaker ~metrics
        ~checkpoint_every
    in
    svc.persisted <- true;
    (* exactly one process writes the store: the primary.  A promotion
       calls [enable_periodic_checkpoints] to take ownership. *)
    svc.saved_checkpoint_every <- svc.checkpoint_every;
    svc.checkpoint_every <- 0;
    Ok svc

let store_path t = Option.map Store.path t.store

(* Replace the warm fixpoint with a snapshot the replication layer just
   installed (a standby following an epoch change). *)
let install_snapshot t (snap : Snapshot.t) =
  t.warm <-
    { Chase.instance = snap.Snapshot.instance;
      outcome = Chase.Saturated;
      stats = snap.Snapshot.stats;
      provenance = None };
  t.fixpoint_at <- Guard.Clock.now ();
  t.persisted <- true

(* Replay freshly shipped journal records into the warm instance — the
   in-memory mirror of what [Store.load] does on disk.  [Fact] for a
   predicate the snapshot never declared can only mean the primary
   declared it after the snapshot epoch; declare it here too. *)
let apply_replicated t records =
  let inst = t.warm.Chase.instance in
  List.iter
    (fun record ->
      match record with
      | Journal.Fact (pred, tuple) ->
        let rel =
          match R.Instance.find inst pred with
          | Some rel -> rel
          | None ->
            R.Instance.declare inst
              (R.Rel_schema.of_names pred
                 (List.mapi
                    (fun i _ -> Printf.sprintf "a%d" (i + 1))
                    (R.Tuple.to_list tuple)))
        in
        ignore (R.Relation.add rel tuple)
      | Journal.Merge { from_; into } ->
        ignore (R.Instance.substitute inst (R.Value.Map.singleton from_ into))
      | Journal.Round { stats; _ } ->
        t.warm <- { t.warm with Chase.stats })
    records;
  t.fixpoint_at <- Guard.Clock.now ()

(* --- checkpointing through the breaker ------------------------------- *)

let checkpoint t ~force =
  match t.store with
  | None -> `No_store
  | Some st ->
    if not (force || Breaker.allow t.breaker) then
      `Breaker_open
        (Option.value ~default:0. (Breaker.retry_at t.breaker))
    else (
      match
        Store.checkpoint_now st ~instance:t.warm.Chase.instance
          ~stats:t.warm.Chase.stats
      with
      | Ok bytes ->
        Breaker.record_success t.breaker;
        Store.clear_write_error st;
        t.last_checkpoint_error <- None;
        t.persisted <- true;
        `Written bytes
      | Error e ->
        Breaker.record_failure t.breaker;
        let msg = Printexc.to_string e in
        t.last_checkpoint_error <- Some msg;
        t.persisted <- false;
        `Failed msg
      | exception Guard.Exhausted e ->
        (* the server's own checkpoint-byte budget: not an I/O fault *)
        t.last_checkpoint_error <-
          Some (Format.asprintf "%a" Guard.pp_exhaustion e);
        `Failed (Format.asprintf "%a" Guard.pp_exhaustion e))

let disable_periodic_checkpoints t =
  if t.checkpoint_every > 0 then t.saved_checkpoint_every <- t.checkpoint_every;
  t.checkpoint_every <- 0

let enable_periodic_checkpoints t =
  if t.checkpoint_every = 0 && t.saved_checkpoint_every > 0 then
    t.checkpoint_every <- t.saved_checkpoint_every

let request_served t =
  t.requests <- t.requests + 1;
  if
    t.checkpoint_every > 0
    && t.store <> None
    && t.requests mod t.checkpoint_every = 0
  then ignore (checkpoint t ~force:false)

(* --- query answering -------------------------------------------------- *)

type query_outcome =
  | Answers of R.Tuple.t list
  | Partial of R.Tuple.t list * Guard.exhaustion
  | Bad_query of Diag.t
  | Inconsistent of string

let unknown_predicates t q =
  List.filter
    (fun a ->
      let p = Atom.pred a in
      R.Instance.find t.warm.Chase.instance p = None
      && R.Instance.find t.base p = None)
    q.Query.body

let query t ?timeout ?max_steps ~engine qtext =
  match Parser.parse_query qtext with
  | exception Parser.Error { line; message; _ } ->
    Bad_query
      (Diag.make ~file:"<query>" ~line Diag.Error ~code:"E002" message)
  | q -> (
    match unknown_predicates t q with
    | a :: _ ->
      Bad_query
        (Diag.make ~file:"<query>" Diag.Error ~code:"E012"
           (Printf.sprintf "unknown predicate %s" (Atom.pred a)))
    | [] -> (
      match t.warm.Chase.outcome with
      | Chase.Failed f ->
        Inconsistent
          (Format.asprintf "%a" Chase.pp_outcome (Chase.Failed f))
      | warm_outcome ->
        let child = Guard.fork ?timeout ?max_steps t.guard in
        let result =
          match engine with
          | Protocol.Chase -> (
            (* the whole point of serving: evaluate over the warm
               fixpoint, no re-chase *)
            match
              Guard.protect child
                (fun () ->
                  Query.certain ~guard:child t.warm.Chase.instance q)
                ~partial:(fun () -> [])
            with
            | Guard.Complete answers -> (
              match warm_outcome with
              | Chase.Out_of_budget e ->
                (* sound under-approximation over a partial fixpoint *)
                Partial (answers, e)
              | _ -> Answers answers)
            | Guard.Degraded (answers, e) -> Partial (answers, e))
          | Protocol.Proof ->
            let r =
              Proof.answer ?max_steps t.program t.base q
            in
            if r.Proof.complete then Answers r.Proof.answers
            else
              Partial
                ( r.Proof.answers,
                  { Guard.resource = Guard.Steps;
                    limit = float_of_int (Option.value ~default:2_000_000
                                            max_steps);
                    used = float_of_int r.Proof.steps } )
          | Protocol.Rewrite -> (
            match Rewrite.answers ~guard:child t.program t.base q with
            | Guard.Complete answers -> Answers answers
            | Guard.Degraded (answers, e) -> Partial (answers, e))
        in
        Guard.absorb t.guard child;
        result))

(* --- introspection ---------------------------------------------------- *)

let warm_saturated t = t.warm.Chase.outcome = Chase.Saturated

let ready t =
  match t.warm.Chase.outcome with
  | Chase.Saturated -> (true, "warm fixpoint")
  | Chase.Out_of_budget e ->
    ( false,
      Format.asprintf "fixpoint degraded: %a" Guard.pp_exhaustion e )
  | Chase.Failed _ -> (false, "ontology inconsistent")

let health_fields t =
  let cons = Guard.consumption t.guard in
  let outcome =
    match t.warm.Chase.outcome with
    | Chase.Saturated -> "saturated"
    | Chase.Out_of_budget _ -> "degraded"
    | Chase.Failed _ -> "failed"
  in
  let breaker_fields =
    [ ("state", Jsonl.Str (Breaker.state_name t.breaker));
      ("consecutive_failures",
       Jsonl.Num (float_of_int (Breaker.consecutive_failures t.breaker)));
      ("trips", Jsonl.Num (float_of_int (Breaker.trips t.breaker))) ]
    @ (match Breaker.retry_at t.breaker with
       | Some at ->
         [ ("retry_in",
            Jsonl.Num (Float.max 0. (at -. Unix.gettimeofday ()))) ]
       | None -> [])
    @
    match t.last_checkpoint_error with
    | Some e -> [ ("last_error", Jsonl.Str e) ]
    | None -> []
  in
  [ ("fixpoint",
     Jsonl.Obj
       [ ("outcome", Jsonl.Str outcome);
         ("age_s", Jsonl.Num (Guard.Clock.now () -. t.fixpoint_at));
         ("facts",
          Jsonl.Num
            (float_of_int (R.Instance.total_tuples t.warm.Chase.instance)));
         ("persisted", Jsonl.Bool t.persisted) ]);
    ("guard",
     Jsonl.Obj
       [ ("steps", Jsonl.Num (float_of_int cons.Guard.steps));
         ("nulls", Jsonl.Num (float_of_int cons.Guard.nulls));
         ("rows", Jsonl.Num (float_of_int cons.Guard.rows));
         ("checkpoint_bytes",
          Jsonl.Num (float_of_int cons.Guard.checkpoint_bytes));
         ("elapsed_s", Jsonl.Num cons.Guard.elapsed);
         ("heap_mb", Jsonl.Num cons.Guard.heap_mb) ]);
    ("breaker", Jsonl.Obj breaker_fields);
    ("store", Jsonl.Bool (t.store <> None));
    ("requests", Jsonl.Num (float_of_int t.requests)) ]

let requests t = t.requests
let guard t = t.guard
let breaker t = t.breaker
let metrics t = t.metrics

(* Scrape-time gauges: point-in-time readings of service state that is
   not naturally a monotonic counter.  The breaker state encoding
   (0 = closed, 1 = open, 2 = half-open) makes trips visible as gauge
   transitions across scrapes. *)
let record_metrics t =
  let m = t.metrics in
  let set name help v = Metrics.set (Metrics.gauge m ~help name) v in
  Guard.record_metrics t.guard m;
  set "mdqa_server_breaker_state"
    "checkpoint breaker state (0=closed, 1=open, 2=half-open)"
    (match Breaker.state_name t.breaker with
    | "open" -> 1.
    | "half-open" -> 2.
    | _ -> 0.);
  set "mdqa_server_breaker_trips" "times the checkpoint breaker opened"
    (float_of_int (Breaker.trips t.breaker));
  set "mdqa_server_breaker_consecutive_failures"
    "consecutive checkpoint failures"
    (float_of_int (Breaker.consecutive_failures t.breaker));
  set "mdqa_server_requests" "requests served by the service"
    (float_of_int t.requests);
  set "mdqa_server_fixpoint_facts" "facts in the warm fixpoint"
    (float_of_int (R.Instance.total_tuples t.warm.Chase.instance));
  set "mdqa_server_fixpoint_age_seconds"
    "seconds since the warm fixpoint was materialized"
    (Guard.Clock.now () -. t.fixpoint_at);
  set "mdqa_server_fixpoint_persisted"
    "1 when the current fixpoint reached the disk"
    (if t.persisted then 1. else 0.)

let close t = match t.store with Some st -> Store.close st | None -> ()
