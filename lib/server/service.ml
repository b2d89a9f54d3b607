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
  checkpoint_every : int;  (** 0 disables the periodic check *)
  mutable standby : bool;  (** the primary owns the bytes: never write *)
  mutable fixpoint_at : float;  (** Guard.Clock time of materialization *)
  mutable requests : int;
  mutable last_checkpoint_error : string option;
  mutable image : Store.image_id option;
      (** the file holding the current fixpoint; [None] until it
          reaches the disk *)
}

let mk ~program ~base ~warm ~guard ~store ~breaker ~metrics ~checkpoint_every
    =
  { program; base; warm; guard; store; breaker; metrics; checkpoint_every;
    standby = false; fixpoint_at = Guard.Clock.now (); requests = 0;
    last_checkpoint_error = None; image = None }

let on_disk st = Store.image_id ~path:(Store.path st)

(* The fixpoint is on disk: remember which file holds it, so the
   periodic check can tell it is still there with one [stat]. *)
let persisted t = t.image <- Option.bind t.store on_disk

(* The program a store was written from, re-parsed for the proof and
   rewrite engines, and its extensional facts. *)
let program_of_text text =
  let program = (Parser.parse_string text).Parser.program in
  (program, Program.instance_of_facts program)

let saturated instance stats =
  { Chase.instance; outcome = Chase.Saturated; stats; provenance = None }

let diag_of_store_error path e =
  [ Diag.make ~file:path Diag.Error ~code:"E023"
      (Format.asprintf "%a" Store.pp_load_error e) ]

let load ?guard ?breaker ?store ?metrics ?(checkpoint_every = 64)
    ?keep_generations ?program_file () =
  let guard = Option.value guard ~default:(Guard.unlimited ()) in
  let breaker = Option.value breaker ~default:(Breaker.create ()) in
  let metrics = Option.value metrics ~default:(Metrics.create ()) in
  let warm_start path =
    match Store.resume ~guard ~metrics ~path () with
    | Error e -> Error (diag_of_store_error path e)
    | Ok (warm, recovery) ->
      (* a fresh handle for the service's own checkpoints *)
      let program, base = program_of_text recovery.Store.program_text in
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
              ~program_text:(In_channel.with_open_bin file In_channel.input_all)
              ~variant:Chase.Restricted ())
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
       | None -> persisted svc
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
  let guard = Option.value guard ~default:(Guard.unlimited ()) in
  let breaker = Option.value breaker ~default:(Breaker.create ()) in
  let metrics = Option.value metrics ~default:(Metrics.create ()) in
  match Store.load ~path with
  | Error e -> Error (diag_of_store_error path e)
  | Ok r ->
    let program, base = program_of_text r.Store.program_text in
    let warm = saturated r.Store.instance r.Store.stats in
    let st =
      Store.create ~guard ~metrics ?keep_generations ~path
        ~program_text:r.Store.program_text ~variant:r.Store.variant ()
    in
    let svc =
      mk ~program ~base ~warm ~guard ~store:(Some st) ~breaker ~metrics
        ~checkpoint_every
    in
    persisted svc;
    (* exactly one process writes the store: the primary, until
       [promote] hands ownership over *)
    svc.standby <- true;
    Ok svc

let store_path t = Option.map Store.path t.store

(* Replace the warm fixpoint with a snapshot the replication layer just
   installed (a standby following an epoch change). *)
let install_snapshot t (snap : Snapshot.t) =
  t.warm <- saturated snap.Snapshot.instance snap.Snapshot.stats;
  t.fixpoint_at <- Guard.Clock.now ();
  persisted t

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
        persisted t;
        `Written bytes
      | Error e ->
        Breaker.record_failure t.breaker;
        let msg = Printexc.to_string e in
        t.last_checkpoint_error <- Some msg;
        t.image <- None;
        `Failed msg
      | exception Guard.Exhausted e ->
        (* the server's own checkpoint-byte budget: not an I/O fault *)
        t.last_checkpoint_error <-
          Some (Format.asprintf "%a" Guard.pp_exhaustion e);
        `Failed (Format.asprintf "%a" Guard.pp_exhaustion e))

let promote t =
  t.standby <- false;
  ignore (checkpoint t ~force:true)

(* No request changes a primary's warm fixpoint, so the periodic
   rewrite is owed only when the disk may lack it: never persisted,
   the breaker not [Closed] (a failed write or an out-of-band trip
   awaits its probe), or the file at the path is not the one last
   written (unlinked, replaced, rewritten by someone else). *)
let image_current t st =
  match t.image with
  | None -> false
  | Some id ->
    Breaker.state t.breaker = Breaker.Closed
    && on_disk st = Some id

let request_served t =
  t.requests <- t.requests + 1;
  match t.store with
  | Some st
    when (not t.standby) && t.checkpoint_every > 0
         && t.requests mod t.checkpoint_every = 0
         && not (image_current t st) ->
    ignore (checkpoint t ~force:false)
  | _ -> ()

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
  | exception Parser.Error { line; code; message; _ } ->
    Bad_query (Diag.make ~file:"<query>" ~line Diag.Error ~code message)
  | q -> (
    match unknown_predicates t q with
    | a :: _ ->
      Bad_query
        (Diag.make ~file:"<query>" Diag.Error ~code:"E012"
           (Printf.sprintf "unknown predicate %s" (Atom.pred a)))
    | [] -> (
      (* a request is bounded by its own fork and charges nothing
         back: no run of requests can spend the server's budgets *)
      let guard = Guard.fork ?timeout ?max_steps t.guard in
      let outcome =
        match engine with
        | Answer.Chase ->
          (* the whole point of serving: evaluate over the warm
             fixpoint, no re-chase *)
          Answer.of_fixpoint ~guard t.warm q
        | engine -> Answer.answer ~guard engine t.program t.base q
      in
      match outcome with
      | Answer.Ok answers -> Answers answers
      | Answer.Degraded { partial; exhaustion } ->
        Partial (partial, exhaustion)
      | Answer.Inconsistent f ->
        Inconsistent (Format.asprintf "%a" Chase.pp_outcome (Chase.Failed f))
      | Answer.Refused d -> Bad_query d))

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
    @ (match Breaker.retry_in t.breaker with
       | Some s -> [ ("retry_in", Jsonl.Num s) ]
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
         ("persisted", Jsonl.Bool (t.image <> None)) ]);
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
    (match Breaker.state t.breaker with
    | Breaker.Closed -> 0. | Open _ -> 1. | Half_open -> 2.);
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
    (if t.image <> None then 1. else 0.)

let close t = match t.store with Some st -> Store.close st | None -> ()
