module Instance = Mdqa_relational.Instance
module Relation = Mdqa_relational.Relation
module Tuple = Mdqa_relational.Tuple
module Value = Mdqa_relational.Value
module Chase = Mdqa_datalog.Chase
module Guard = Mdqa_datalog.Guard
module Diag = Mdqa_datalog.Diag
module Parser = Mdqa_datalog.Parser
module Metrics = Mdqa_obs.Metrics
module Trace = Mdqa_obs.Trace

let journal_path path = path ^ ".journal"
let generation_path path k = path ^ "." ^ string_of_int k

let generations ~path =
  let rec go k =
    if Sys.file_exists (generation_path path (k + 1)) then go (k + 1) else k
  in
  go 0

(* Keep the last [keep] committed images as path.1 (newest generation)
   .. path.[keep] (oldest).  The current image is hard-linked to path.1
   BEFORE the new one renames over path, so there is never an instant
   with zero complete snapshots on disk; a crash mid-rotation at worst
   leaves a duplicate generation, never a gap at path.  Best-effort:
   generations are redundancy, and a disk too sick to rename will make
   the snapshot write itself fail loudly a moment later. *)
let rotate_generations ~path ~keep =
  if keep > 0 && Sys.file_exists path then (
    try
      for k = keep - 1 downto 1 do
        let src = generation_path path k in
        if Sys.file_exists src then
          Unix.rename src (generation_path path (k + 1))
      done;
      let gen1 = generation_path path 1 in
      let tmp = gen1 ^ ".tmp" in
      (try Sys.remove tmp with Sys_error _ -> ());
      Unix.link path tmp;
      Unix.rename tmp gen1;
      Snapshot.fsync_dir (Filename.dirname path)
    with Unix.Unix_error _ | Sys_error _ -> ())

let zero_stats =
  { Chase.rounds = 0; tgd_fires = 0; triggers_checked = 0; nulls_created = 0;
    egd_merges = 0 }

(* Durability instruments, resolved once per store so the journal hot
   path pays two field bumps, not a registry lookup. *)
type instruments = {
  ck_total : Metrics.counter;
  ck_bytes : Metrics.counter;
  ck_seconds : Metrics.histogram;
  ck_failures : Metrics.counter;
  j_frames : Metrics.counter;
  j_bytes : Metrics.counter;
}

let instruments m =
  { ck_total =
      Metrics.counter m ~help:"snapshot checkpoints written"
        "mdqa_store_checkpoint_total";
    ck_bytes =
      Metrics.counter m ~help:"snapshot bytes written"
        "mdqa_store_checkpoint_bytes_total";
    ck_seconds =
      Metrics.histogram m ~help:"snapshot write duration"
        "mdqa_store_checkpoint_seconds";
    ck_failures =
      Metrics.counter m ~help:"failed snapshot writes"
        "mdqa_store_checkpoint_failures_total";
    j_frames =
      Metrics.counter m ~help:"journal frames appended"
        "mdqa_store_journal_frames_total";
    j_bytes =
      Metrics.counter m ~help:"journal bytes appended"
        "mdqa_store_journal_bytes_total" }

type t = {
  path : string;
  guard : Guard.t option;
  compact_bytes : int;
  keep_generations : int;
  program_text : string;
  variant : Chase.variant;
  ins : instruments;
  mutable writer : Journal.writer option;
  mutable journal_bytes : int;
  mutable max_null : int;  (** largest null label seen so far; -1 if none *)
  mutable start_frontier : (string * Tuple.t list) list option;
  mutable start_stats : Chase.stats;
  mutable write_error : exn option;
}

let create ?guard ?(compact_bytes = 4 * 1024 * 1024) ?(keep_generations = 2)
    ?metrics ~path ~program_text ~variant () =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  { path; guard; compact_bytes; keep_generations = max 0 keep_generations;
    program_text; variant; ins = instruments m;
    writer = None; journal_bytes = 0; max_null = -1; start_frontier = None;
    start_stats = zero_stats; write_error = None }

let write_error st = st.write_error
let clear_write_error st = st.write_error <- None

let close st =
  match st.writer with
  | None -> ()
  | Some w ->
    st.writer <- None;
    Journal.close w

(* Budget accounting runs AFTER the corresponding write so that the
   journal never lies about what happened; a [Guard.Exhausted] raised
   here propagates out of on_fact/on_merge and degrades the chase. *)
let account st n =
  match st.guard with
  | None -> ()
  | Some g -> Guard.count_checkpoint_bytes g n

let note_value st = function
  | Value.Null k -> if k > st.max_null then st.max_null <- k
  | _ -> ()

let note_tuple st t = List.iter (note_value st) (Tuple.to_list t)

let note_instance st inst = Instance.iter_facts (fun _ t -> note_tuple st t) inst

let write_snapshot st ~instance ~frontier ~stats =
  Trace.with_span "store.checkpoint" ~attrs:[ ("path", st.path) ] @@ fun () ->
  let t0 = Guard.Clock.now () in
  rotate_generations ~path:st.path ~keep:st.keep_generations;
  match
    Snapshot.write ~path:st.path
      { Snapshot.program_text = st.program_text; variant = st.variant;
        instance; null_base = st.max_null + 1; stats; frontier }
  with
  | bytes ->
    Metrics.inc st.ins.ck_total;
    Metrics.add st.ins.ck_bytes bytes;
    Metrics.observe st.ins.ck_seconds (Guard.Clock.now () -. t0);
    bytes
  | exception e ->
    Metrics.inc st.ins.ck_failures;
    raise e

(* Compaction: fold the journal into a fresh snapshot.  The snapshot
   rename commits FIRST; only then is the journal truncated.  A crash
   between the two leaves journal records that are already in the
   snapshot — replay is idempotent, so recovery is unaffected. *)
let compact st ~instance ~frontier ~stats =
  let snap_bytes = write_snapshot st ~instance ~frontier ~stats in
  (match st.writer with Some w -> Journal.close w | None -> ());
  st.writer <- Some (Journal.create ~path:(journal_path st.path));
  st.journal_bytes <- 0;
  account st snap_bytes

let append st record =
  match st.writer with
  | None -> ()
  | Some w ->
    let n = Journal.append w record in
    st.journal_bytes <- st.journal_bytes + n;
    Metrics.inc st.ins.j_frames;
    Metrics.add st.ins.j_bytes n;
    account st n

let checkpoint st =
  { Chase.on_start =
      (fun inst ->
        note_instance st inst;
        compact st ~instance:inst ~frontier:st.start_frontier
          ~stats:st.start_stats);
    on_fact =
      (fun pred tuple ->
        note_tuple st tuple;
        append st (Journal.Fact (pred, tuple)));
    on_merge =
      (fun ~from_ ~into ->
        note_value st from_;
        note_value st into;
        append st (Journal.Merge { from_; into }));
    on_round =
      (fun ~instance ~frontier stats ->
        append st (Journal.Round { merged = frontier = None; stats });
        (match st.writer with Some w -> Journal.sync w | None -> ());
        if st.journal_bytes >= st.compact_bytes then
          compact st ~instance ~frontier ~stats);
    on_done =
      (fun ~instance _outcome stats ->
        (* Must not raise: the chase result would be lost to a full
           disk or a tripped budget.  Failures land in [write_error]. *)
        try
          compact st ~instance ~frontier:None ~stats;
          close st
        with
        | Guard.Exhausted _ ->
          (* The guard was already tripped (that is why the run is
             ending); the final image is still written before the
             accounting tick re-raises.  Not a write failure. *)
          close st
        | e -> if st.write_error = None then st.write_error <- Some e);
  }

(* One-shot snapshot write for a long-running service: the caller (the
   server's circuit breaker) decides whether and when to retry, so
   failures come back as values instead of raising — except a tripped
   guard, which is the caller's own budget and must keep propagating. *)
let checkpoint_now st ~instance ~stats =
  match
    Mdqa_obs.Failpoint.hit "store.checkpoint";
    note_instance st instance;
    write_snapshot st ~instance ~frontier:None ~stats
  with
  | bytes ->
    account st bytes;
    Ok bytes
  | exception (Guard.Exhausted _ as e) -> raise e
  | exception e ->
    if st.write_error = None then st.write_error <- Some e;
    Error e

(* --- recovery -------------------------------------------------------- *)

type recovery = {
  program_text : string;
  variant : Chase.variant;
  instance : Instance.t;
  frontier : (string * Tuple.t) list option;
  null_base : int;
  stats : Chase.stats;
  replayed : int;
  journal_truncation : Binio.damage option;
}

type load_error =
  | No_store of string
  | Corrupt_snapshot of Binio.damage
  | Bad_program of { line : int; message : string }

let pp_load_error ppf = function
  | No_store p -> Format.fprintf ppf "no snapshot at %s" p
  | Corrupt_snapshot c ->
    Format.fprintf ppf "corrupt snapshot: %a" Binio.pp_damage c
  | Bad_program { line; message } ->
    Format.fprintf ppf "stored program no longer parses (line %d): %s" line
      message

let flatten_frontier = function
  | None -> None
  | Some groups ->
    Some
      (List.concat_map (fun (p, ts) -> List.map (fun t -> (p, t)) ts) groups)

let group_frontier = function
  | None -> None
  | Some pairs ->
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun (p, t) ->
        match Hashtbl.find_opt tbl p with
        | None ->
          Hashtbl.add tbl p (ref [ t ]);
          order := p :: !order
        | Some l -> l := t :: !l)
      pairs;
    Some
      (List.rev_map (fun p -> (p, List.rev !(Hashtbl.find tbl p))) !order)

(* [load] generalized over the file layout: fsck replays the journal
   over a PREVIOUS generation image when the current snapshot is rot. *)
let load_from ~snapshot:spath ~journal:jpath =
  if not (Sys.file_exists spath) then Error (No_store spath)
  else
    match Snapshot.read ~path:spath with
    | Error c -> Error (Corrupt_snapshot c)
    | Ok snap ->
      let inst = snap.Snapshot.instance in
      let jr =
        if Sys.file_exists jpath then Journal.read ~path:jpath
        else { Journal.records = []; truncation = None; valid_bytes = 0 }
      in
      let truncation = ref jr.Journal.truncation in
      let max_null = ref (snap.Snapshot.null_base - 1) in
      let note v =
        match v with
        | Value.Null k -> if k > !max_null then max_null := k
        | _ -> ()
      in
      (* Replay state: [segment] collects the facts appended since the
         last [Round] record (in reverse); a [Round] turns the segment
         into the current frontier.  A trailing segment (crash
         mid-round) is unioned into the frontier so the resumed round
         covers both the last completed delta and the partial one. *)
      let frontier = ref (flatten_frontier snap.Snapshot.frontier) in
      let segment = ref [] in
      let segment_merged = ref false in
      let stats = ref snap.Snapshot.stats in
      (* merges replayed since the last [Round], which no stats record
         counts yet *)
      let tail_merges = ref 0 in
      let replayed = ref 0 in
      let stopped = ref false in
      let stop offset reason =
        stopped := true;
        truncation := Some { Binio.offset; kind = Inapplicable; reason }
      in
      List.iter
        (fun (off, record) ->
          if not !stopped then
            match record with
            | Journal.Fact (pred, tuple) -> (
              match Instance.find inst pred with
              | None ->
                stop off
                  (Printf.sprintf
                     "journal fact for predicate %S absent from snapshot" pred)
              | Some rel ->
                if Relation.arity rel <> Tuple.arity tuple then
                  stop off
                    (Printf.sprintf
                       "journal fact arity %d does not match %S/%d"
                       (Tuple.arity tuple) pred (Relation.arity rel))
                else begin
                  (* Duplicates are expected after a crash inside
                     compaction (snapshot committed, journal not yet
                     truncated): [add] is a no-op then. *)
                  if Relation.add rel tuple then
                    segment := (pred, tuple) :: !segment;
                  List.iter note (Tuple.to_list tuple);
                  incr replayed
                end)
            | Journal.Merge { from_; into } ->
              ignore
                (Instance.substitute inst (Value.Map.singleton from_ into));
              note into;
              segment_merged := true;
              incr tail_merges;
              incr replayed
            | Journal.Round { merged; stats = s } ->
              stats := s;
              tail_merges := 0;
              frontier :=
                (if merged || !segment_merged then None
                 else Some (List.rev !segment));
              segment := [];
              segment_merged := false;
              incr replayed)
        jr.Journal.records;
      let frontier =
        if !segment_merged then None
        else
          match (!frontier, List.rev !segment) with
          | Some f, trailing -> Some (f @ trailing)
          | None, _ ->
            (* Unknown base frontier: only a full first round is sound,
               trailing facts or not. *)
            None
      in
      Ok
        { program_text = snap.Snapshot.program_text;
          variant = snap.Snapshot.variant;
          instance = inst;
          frontier;
          null_base = !max_null + 1;
          stats =
            { !stats with
              Chase.egd_merges = !stats.Chase.egd_merges + !tail_merges };
          replayed = !replayed;
          journal_truncation = !truncation }

let load ~path = load_from ~snapshot:path ~journal:(journal_path path)

let resume ?guard ?compact_bytes ?metrics ~path () =
  match load ~path with
  | Error e -> Error e
  | Ok r -> (
    match Parser.parse_string r.program_text with
    | exception Parser.Error { line; message; _ } ->
      Error (Bad_program { line; message })
    | parsed ->
      let st =
        create ?guard ?compact_bytes ?metrics ~path
          ~program_text:r.program_text ~variant:r.variant ()
      in
      st.max_null <- r.null_base - 1;
      st.start_frontier <- group_frontier r.frontier;
      st.start_stats <- r.stats;
      let start =
        Chase.Resume
          { frontier = Option.value ~default:[] r.frontier;
            null_base = r.null_base;
            prior_stats = r.stats }
      in
      let result =
        Chase.run ~variant:r.variant ?guard ~checkpoint:(checkpoint st)
          ?metrics ~start parsed.Parser.program r.instance
      in
      Ok (result, r))

(* --- replication shipping -------------------------------------------- *)

(* The ship path moves a store's exact on-disk bytes: the snapshot
   image travels whole (its section CRCs validate it at the far end),
   the journal travels as byte slices appended verbatim — so the
   standby's recovery semantics (torn-tail truncation, idempotent
   replay) are literally the local crash-recovery code. *)

let path st = st.path

type image_id = { dev : int; ino : int; size : int; mtime : float }

let image_id ~path =
  match Unix.stat path with
  | { Unix.st_dev = dev; st_ino = ino; st_size = size; st_mtime = mtime; _ } ->
    Some { dev; ino; size; mtime }
  | exception Unix.Unix_error _ -> None

let read_image ~path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no snapshot at %s" path)
  else
    Result.map_error (fun (d : Binio.damage) -> d.reason) (Binio.read_file path)

let read_journal_slice ~path ~offset ~len =
  let jpath = journal_path path in
  if not (Sys.file_exists jpath) then Ok ("", 0)
  else
    match Unix.openfile jpath [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | fd -> (
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      match
        let total = (Unix.fstat fd).Unix.st_size in
        let offset = min offset total in
        let buf = Bytes.create (max 0 (min len (total - offset))) in
        let got = Binio.pread fd buf ~off:offset ~len:(Bytes.length buf) in
        (Bytes.sub_string buf 0 got, total)
      with
      | r -> Ok r
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

let install_stream ~path ~snapshot ~journal =
  match Snapshot.of_string snapshot with
  | Error c ->
    Error
      (Format.asprintf "shipped snapshot rejected: %a" Binio.pp_damage c)
  | Ok _ -> (
    match
      ignore (Snapshot.write_raw ~path snapshot);
      let jpath = journal_path path in
      (* The journal swap gets the same directory-fsync discipline as
         the snapshot rename: without it, a crash can resurrect the
         removed (stale) journal beside the freshly installed snapshot
         and replay deltas from a different epoch over it. *)
      if journal = "" then begin
        if Sys.file_exists jpath then begin
          Sys.remove jpath;
          Snapshot.fsync_dir (Filename.dirname jpath)
        end
      end
      else begin
        let fd =
          Unix.openfile (jpath ^ ".tmp")
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
            0o644
        in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Binio.write_all fd journal;
            Binio.fsync_retry fd);
        Unix.rename (jpath ^ ".tmp") jpath;
        Snapshot.fsync_dir (Filename.dirname jpath)
      end
    with
    | () -> Ok ()
    | exception Sys_error e -> Error e
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

let append_journal_bytes ~path bytes =
  if bytes = "" then Ok ()
  else
    match
      Unix.openfile (journal_path path)
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
        0o644
    with
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match
            Binio.write_all fd bytes;
            Binio.fsync_retry fd
          with
          | () -> Ok ()
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

(* Inspection lives in {!Fsck}: [check] is the integrity report behind
   [mdqa store verify], [repair] the salvage chain behind
   [mdqa store fsck --repair]. *)
