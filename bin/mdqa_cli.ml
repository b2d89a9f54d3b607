(* mdqa: command-line front end to the Datalog± engine.

   Programs are written in the surface syntax of {!Mdqa_datalog.Parser}
   (facts, TGDs, EGDs, negative constraints, queries).  Subcommands:

     mdqa chase FILE            run the chase, print the saturated instance
       [--checkpoint STORE]     ... keeping a crash-safe on-disk image
     mdqa resume STORE          continue an interrupted checkpointed chase
     mdqa store verify STORE    integrity-check a checkpoint store
     mdqa store fsck STORE      classify damage; --repair runs the
                                salvage chain (journal prefix, previous
                                generation, --from peer)
     mdqa query FILE [-q Q]     answer queries (chase | proof | rewrite)
     mdqa classify FILE         Datalog± class report and position graph
     mdqa check FILE [--json]   validate: every diagnostic in one pass
     mdqa consistency FILE      constraints only: EGD/NC verdict (chase)
     mdqa context FILE.mdq      the full multidimensional QA pipeline

   Exit codes (all subcommands):
     0  complete result (for check: clean, or hints only)
     2  degraded: a resource budget (steps, nulls, rows, CQs, repair
        branches, --timeout, --max-memory) ran out; the partial result
        is printed and the exhaustion reported on stderr
        (for check: warnings but no errors)
     1  error: validation errors, I/O failure, or an inconsistent
        program

   Every subcommand validates its input before running and reports all
   errors (with file:line:col locations and stable codes) instead of
   stopping at the first.

   Example program file:

     unit_ward(standard, w1).
     unit_ward(standard, w2).
     patient_ward(w1, sep5, tom).
     patient_unit(U, D, P) :- patient_ward(W, D, P), unit_ward(U, W).
     ?q(U) :- patient_unit(U, sep5, tom). *)

open Cmdliner
module Cterm = Cmdliner.Term
open Mdqa_datalog
module R = Mdqa_relational
module Server = Mdqa_server.Server
module Service = Mdqa_server.Service
module Client = Mdqa_server.Client
module Sproto = Mdqa_server.Protocol
module Jsonl = Mdqa_obs.Jsonl
module Backoff = Mdqa_server.Backoff
module Fdio = Mdqa_server.Fdio
module Replication = Mdqa_server.Replication
module Metrics = Mdqa_obs.Metrics
module Logger = Mdqa_obs.Logger
module Trace = Mdqa_obs.Trace
module Failpoint = Mdqa_obs.Failpoint

let exit_complete = 0
let exit_error = 1
let exit_degraded = 2

(* Raised after the offending diagnostics have already been printed. *)
exception Fatal_diags

(* Every subcommand funnels its failures through here: parse errors,
   I/O errors and stray library exceptions become exit code 1 with a
   one-line message on stderr — no exception ever escapes to the
   runtime. *)
let run_protected f =
  try f () with
  | Fatal_diags -> exit_error
  | Parser.Error { line; message; _ } ->
    Logger.error ~fields:[ ("line", Logger.Int line) ]
      ("parse error: " ^ message);
    exit_error
  | Sys_error e | Failure e ->
    Logger.error e;
    exit_error
  | Invalid_argument e ->
    Logger.error ("invalid input: " ^ e);
    exit_error
  | Unix.Unix_error (e, fn, arg) ->
    Logger.error
      ~fields:
        (("syscall", Logger.Str fn)
        :: (if arg = "" then [] else [ ("arg", Logger.Str arg) ]))
      (Unix.error_message e);
    exit_error

let report_error_diags diags =
  List.iter
    (fun d ->
      if d.Diag.severity = Diag.Error then Format.eprintf "%a@." Diag.pp d)
    diags

(* Validation-first loading: every error in the file is reported (with
   its location and code) before the subcommand gives up. *)
let parsed_or_exit parsed diags =
  match parsed with
  | Some p -> p
  | None ->
    report_error_diags diags;
    raise Fatal_diags

let load path =
  let { Validate.parsed; diags } = Validate.check_file path in
  parsed_or_exit parsed diags

(* with the referential violations the check found *)
let load_context path =
  let { Mdqa_context.Md_parser.parsed; diags; referential } =
    Mdqa_context.Md_parser.check_file path
  in
  (parsed_or_exit parsed diags, referential)

(* A located, coded fatal error: the diagnostic prints like any other
   (file:line code message) and the command exits 1 through
   {!run_protected} — no bare [Failure] text without a code. *)
let fatal ?file ?line ~code fmt =
  Printf.ksprintf
    (fun msg ->
      report_error_diags [ Diag.make ?file ?line Diag.Error ~code msg ];
      raise Fatal_diags)
    fmt

(* One stderr format for everything: operational messages go through
   the structured {!Logger}, and the [Logs] library (chase tracing) is
   bridged into it, so `--log-json` turns the whole stream into JSONL.
   User-facing diagnostics (file:line code message) keep their own
   renderer — they are program output, not logs. *)
let setup_logging ?(log_json = false) ?log_level verbose =
  Logger.set_json log_json;
  let lvl =
    match log_level with
    | Some s -> (
      match Logger.level_of_string s with
      | Some l -> l
      | None ->
        fatal ~code:"E024" "unknown log level %S (debug|info|warn|error)" s)
    | None -> if verbose then Logger.Debug else Logger.Info
  in
  Logger.set_level lvl;
  let report src level ~over k msgf =
    let lvl =
      match level with
      | Logs.Debug -> Logger.Debug
      | Logs.Info | Logs.App -> Logger.Info
      | Logs.Warning -> Logger.Warn
      | Logs.Error -> Logger.Error
    in
    msgf @@ fun ?header:_ ?tags:_ fmt ->
    Format.kasprintf
      (fun msg ->
        Logger.log lvl ~fields:[ ("src", Logger.Str (Logs.Src.name src)) ] msg;
        over ();
        k ())
      fmt
  in
  Logs.set_reporter { Logs.report };
  Logs.set_level
    (Some
       (match lvl with
       | Logger.Debug -> Logs.Debug
       | Logger.Info -> Logs.Info
       | Logger.Warn -> Logs.Warning
       | Logger.Error -> Logs.Error))

let report_degraded e =
  Logger.logf Logger.Warn "degraded — %a" Guard.pp_exhaustion e

(* --- common arguments ---------------------------------------------- *)

(* A plain string, not [Arg.file]: missing files then surface as
   [Sys_error] through {!run_protected} — exit 1, like every other
   error — instead of cmdliner's 124. *)
let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Datalog± program file.")

let max_steps_arg =
  Arg.(
    value & opt int 1_000_000
    & info [ "max-steps" ] ~docv:"N"
        ~doc:"Step budget, shared by every engine: chase triggers and \
              proof resolution steps.")

let max_nulls_arg =
  Arg.(
    value & opt int 100_000
    & info [ "max-nulls" ] ~docv:"N" ~doc:"Chase labeled-null budget.")

let timeout_arg =
  Arg.(
    value & opt (some float) None
    & info [ "timeout" ] ~docv:"SEC"
        ~doc:
          "Wall-clock deadline in seconds for the whole run.  On expiry \
           the partial result computed so far is printed and the exit \
           code is 2.")

let max_memory_arg =
  Arg.(
    value & opt (some float) None
    & info [ "max-memory" ] ~docv:"MB"
        ~doc:
          "Heap watermark in megabytes.  When the OCaml heap grows past \
           it the run degrades to the partial result (exit code 2).")

let max_checkpoint_bytes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-checkpoint-bytes" ] ~docv:"N"
        ~doc:
          "Budget for checkpoint-store I/O in bytes.  When a durable run \
           (see $(b,--checkpoint)) has written this much it degrades to \
           the partial result (exit code 2); the on-disk image stays \
           consistent and resumable.")

let make_guard ?max_checkpoint_bytes ~max_steps ~max_nulls ~timeout ~max_memory
    () =
  Guard.create ~max_steps ~max_nulls ?timeout ?max_memory_mb:max_memory
    ?max_checkpoint_bytes ()

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ] ~doc:"Enable debug logging (chase tracing).")

let log_level_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Stderr log threshold: $(b,debug), $(b,info), $(b,warn) or \
           $(b,error).  Overrides $(b,--verbose).")

let log_json_arg =
  Arg.(
    value & flag
    & info [ "log-json" ]
        ~doc:"Emit stderr log records as JSONL instead of text.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the run (parse, validate, chase \
           rounds, rule firings, query evaluation) and write it to \
           $(docv) as Chrome trace-event JSON, loadable by \
           chrome://tracing and Perfetto.")

(* The trace file is written even when the traced run degrades or
   fails: a trace of the failure is the most useful trace of all. *)
let with_tracer trace f =
  match trace with
  | None -> f ()
  | Some path ->
    let tr = Trace.create () in
    Trace.install tr;
    Fun.protect
      ~finally:(fun () ->
        Trace.uninstall ();
        Trace.export_file tr path)
      f

let oblivious_arg =
  Arg.(
    value & flag
    & info [ "oblivious" ]
        ~doc:"Use the oblivious chase instead of the restricted one.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the report as a single JSON object instead of text.")

(* --- chase ----------------------------------------------------------- *)

module Store = Mdqa_store.Store
module Fsck = Mdqa_store.Fsck

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let print_chase_result (r : Chase.result) =
  Format.printf "outcome: %a@." Chase.pp_outcome r.Chase.outcome;
  Format.printf
    "rounds: %d  firings: %d  triggers: %d  nulls: %d  egd merges: %d@.@."
    r.Chase.stats.Chase.rounds r.Chase.stats.Chase.tgd_fires
    r.Chase.stats.Chase.triggers_checked r.Chase.stats.Chase.nulls_created
    r.Chase.stats.Chase.egd_merges;
  List.iter
    (fun rel ->
      if not (R.Relation.is_empty rel) then begin
        R.Table_fmt.print rel;
        print_newline ()
      end)
    (R.Instance.relations r.Chase.instance)

(* A chase that was asked to checkpoint but could not finalize its
   on-disk image has still computed a correct in-memory result; the
   broken durability is its own error. *)
let report_store_write_error store =
  match Store.write_error store with
  | None -> false
  | Some e ->
    Logger.error
      ~fields:[ ("error", Logger.Str (Printexc.to_string e)) ]
      "checkpoint write failed";
    true

let chase_exit (r : Chase.result) =
  match r.Chase.outcome with
  | Chase.Saturated -> exit_complete
  | Chase.Out_of_budget e ->
    report_degraded e;
    exit_degraded
  | Chase.Failed _ -> exit_error

let run_chase file checkpoint keep_generations trace max_steps max_nulls
    timeout max_memory max_checkpoint_bytes oblivious verbose log_level
    log_json =
  run_protected @@ fun () ->
  setup_logging ~log_json ?log_level verbose;
  with_tracer trace @@ fun () ->
  let { Parser.program; _ } = load file in
  let inst = Program.instance_of_facts program in
  let variant = if oblivious then Chase.Oblivious else Chase.Restricted in
  let guard =
    make_guard ?max_checkpoint_bytes ~max_steps ~max_nulls ~timeout
      ~max_memory ()
  in
  let store =
    Option.map
      (fun path ->
        Store.create ~guard ~keep_generations ~path
          ~program_text:(read_file file) ~variant ())
      checkpoint
  in
  let r =
    Chase.run ~variant ~guard
      ?checkpoint:(Option.map Store.checkpoint store)
      program inst
  in
  print_chase_result r;
  let store_broken =
    match store with Some s -> report_store_write_error s | None -> false
  in
  if store_broken then exit_error else chase_exit r

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"STORE"
        ~doc:
          "Keep a crash-safe image of the chase at $(docv) (snapshot) and \
           $(docv).journal (write-ahead deltas).  An interrupted or \
           degraded run can be continued with $(b,mdqa resume) $(docv).")

let keep_generations_arg =
  Arg.(
    value & opt int 2
    & info [ "keep-generations" ] ~docv:"K"
        ~doc:
          "Keep the last $(docv) committed snapshot images as \
           $(i,STORE).1 .. $(i,STORE).$(docv) (rotated on every \
           compaction, 0 disables).  They are the salvage material for \
           $(b,mdqa store fsck --repair) when the current snapshot is \
           damaged.")

let chase_cmd =
  Cmd.v
    (Cmd.info "chase" ~doc:"Run the chase and print the saturated instance.")
    Cterm.(
      const run_chase $ file_arg $ checkpoint_arg $ keep_generations_arg
      $ trace_arg $ max_steps_arg $ max_nulls_arg $ timeout_arg
      $ max_memory_arg $ max_checkpoint_bytes_arg $ oblivious_arg
      $ verbose_arg $ log_level_arg $ log_json_arg)

(* --- resume: continue a checkpointed chase --------------------------- *)

let store_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"STORE"
        ~doc:"Checkpoint store written by $(b,mdqa chase --checkpoint).")

let run_resume path max_steps max_nulls timeout max_memory
    max_checkpoint_bytes verbose log_level log_json =
  run_protected @@ fun () ->
  setup_logging ~log_json ?log_level verbose;
  let guard =
    make_guard ?max_checkpoint_bytes ~max_steps ~max_nulls ~timeout
      ~max_memory ()
  in
  match Store.resume ~guard ~path () with
  | Error e ->
    Logger.logf Logger.Error "%a" Store.pp_load_error e;
    exit_error
  | Ok (r, recovery) ->
    (match recovery.Store.journal_truncation with
     | None -> ()
     | Some t ->
       Logger.logf Logger.Warn
         ~fields:[ ("replayed", Logger.Int recovery.Store.replayed) ]
         "journal truncated (%a); resumed from the valid prefix"
         Mdqa_store.Binio.pp_damage t);
    print_chase_result r;
    chase_exit r

let resume_cmd =
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Continue an interrupted checkpointed chase from its store: replay \
          the snapshot plus the valid journal prefix, then chase on to the \
          same fixpoint the uninterrupted run reaches.  The store needs no \
          program file — it carries its own.")
    Cterm.(
      const run_resume $ store_arg $ max_steps_arg $ max_nulls_arg
      $ timeout_arg $ max_memory_arg $ max_checkpoint_bytes_arg
      $ verbose_arg $ log_level_arg $ log_json_arg)

(* --- store: inspection of checkpoint stores -------------------------- *)

let emit_fsck_report json report =
  if json then print_endline (Jsonl.to_string (Fsck.to_json report))
  else Fsck.print_text report;
  Fsck.exit_code report

let run_store_verify path json =
  run_protected @@ fun () ->
  emit_fsck_report json (Fsck.check ~path)

let store_verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Integrity-check a checkpoint store without touching it: validate \
          the snapshot's checksums, replay the journal, probe the \
          generation chain, and classify the damage.  Exit 0 when the \
          store is clean, 2 when it is damaged but $(b,mdqa store fsck \
          --repair) can salvage it (W046/W051), 1 when it is unrepairable \
          (E032).")
    Cterm.(const run_store_verify $ store_arg $ json_arg)

let repair_arg =
  Arg.(
    value & flag
    & info [ "repair" ]
        ~doc:
          "Execute the salvage chain instead of only reporting it: fold \
           the valid journal prefix into a fresh snapshot, or rebuild \
           from the newest clean generation, or (with $(b,--from)) \
           re-sync from a live peer.  Damaged originals are preserved \
           under $(i,STORE).d/quarantine/.")

let from_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "from" ] ~docv:"ADDR"
        ~doc:
          "A running $(b,mdqa serve) primary (Unix socket path or \
           host:port) to re-sync the store from when no local copy is \
           salvageable — the last stage of the salvage chain.")

let run_store_fsck path repair from json =
  run_protected @@ fun () ->
  if not repair then emit_fsck_report json (Fsck.check ~path)
  else begin
    let resync =
      Option.map
        (fun primary () ->
          (* the replication ship path doubles as the repair source:
             with the damaged files quarantined, the local epoch can't
             match and the peer re-ships the full store *)
          let follower =
            Replication.Follower.create ~primary ~store_path:path
              ~metrics:(Metrics.create ()) ()
          in
          let r =
            match Replication.Follower.initial_sync follower with
            | Ok () -> Ok ()
            | Error d -> Error d.Diag.message
          in
          Replication.Follower.close follower;
          r)
        from
    in
    emit_fsck_report json (Fsck.repair ?resync ~path ())
  end

let store_fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check a checkpoint store and, with $(b,--repair), salvage it: \
          current snapshot + longest clean journal prefix, else the \
          newest clean previous generation + journal replay, else a \
          re-sync from the $(b,--from) peer.  Damaged originals are \
          quarantined (H056), never deleted; a store no stage can save \
          exits 1 with E032 and is left untouched.")
    Cterm.(const run_store_fsck $ store_arg $ repair_arg $ from_arg $ json_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and repair checkpoint stores written by $(b,mdqa \
             chase --checkpoint).")
    [ store_verify_cmd; store_fsck_cmd ]

(* --- query ----------------------------------------------------------- *)

let engine_arg =
  Arg.(
    value
    & opt (enum Answer.engines) Answer.Chase
    & info [ "engine"; "e" ] ~docv:"ENGINE"
        ~doc:
          "Answering engine: $(b,chase) (materialize then evaluate), \
           $(b,proof) (top-down DeterministicWSQAns), or $(b,rewrite) \
           (FO rewriting, upward-only rule sets).")

let query_arg =
  Arg.(
    value & opt_all string []
    & info [ "query"; "q" ] ~docv:"QUERY"
        ~doc:"Extra query, e.g. 'q(X) :- p(X, Y)'. Repeatable; queries \
              embedded in FILE also run.")

let print_answers ?(partial = false) name answers =
  Printf.printf "%s:" name;
  if answers = [] then
    print_string
      (if partial then " (no answers before budget ran out)"
       else " (no certain answers)")
  else if partial then print_string " (partial)";
  print_newline ();
  List.iter (fun t -> Format.printf "  %a@." R.Tuple.pp t) answers

(* Remote answering: ship each -q query to a running [mdqa serve] and
   render its reply with the same shape (and exit codes) as local
   evaluation.  Transient failures — the server restarting, overload
   sheds — are retried with full-jitter backoff by {!Client}. *)

let print_remote_answers name partial (r : Sproto.reply) =
  match r.Sproto.answers with
  | None -> Printf.printf "%s: (no answers)\n" name
  | Some tuples ->
    Printf.printf "%s:%s\n" name
      (if tuples = [] then
         if partial then " (no answers before budget ran out)"
         else " (no certain answers)"
       else if partial then " (partial)"
       else "");
    List.iter
      (fun vs -> Printf.printf "  (%s)\n" (String.concat ", " vs))
      tuples

let run_remote_query ~addr ~engine ~attempts ~budget ~timeout ~max_steps
    query_strings =
  if query_strings = [] then fatal ~code:"E003" "no queries (use -q)";
  let policy = Backoff.policy ~max_attempts:attempts ~budget () in
  let client = Client.create ~policy ~addr () in
  let failed = ref false and degraded = ref false in
  List.iteri
    (fun i q ->
      let req =
        Jsonl.Obj
          ([ ("kind", Jsonl.Str "query");
             ("id", Jsonl.Num (float_of_int i));
             ("query", Jsonl.Str q);
             ("engine", Jsonl.Str (Answer.engine_name engine));
             ("max_steps", Jsonl.Num (float_of_int max_steps)) ]
          @
          match timeout with
          | Some t -> [ ("timeout", Jsonl.Num t) ]
          | None -> [])
      in
      let name = Printf.sprintf "q%d" i in
      match Client.roundtrip client (Jsonl.to_string req) with
      | Error e ->
        Logger.error ~fields:[ ("query", Logger.Str name) ] e;
        failed := true
      | Ok r -> (
        match r.Sproto.status with
        | "complete" -> print_remote_answers name false r
        | "degraded" ->
          print_remote_answers name true r;
          Logger.warn
            ~fields:[ ("query", Logger.Str name) ]
            ("degraded — "
            ^ Option.value r.Sproto.message
                ~default:(Option.value ~default:"budget" r.Sproto.reason));
          degraded := true
        | _ ->
          Logger.error
            ~fields:
              (("query", Logger.Str name)
              :: (match r.Sproto.code with
                 | Some c -> [ ("code", Logger.Str c) ]
                 | None -> []))
            (Option.value ~default:"error reply" r.Sproto.message);
          failed := true))
    query_strings;
  Client.close client;
  if Client.retries client > 0 then
    Logger.info
      ~fields:[ ("retries", Logger.Int (Client.retries client)) ]
      "transient failures retried";
  if !failed then exit_error
  else if !degraded then exit_degraded
  else exit_complete

let run_query file remote retry_attempts retry_budget engine query_strings
    trace max_steps max_nulls timeout max_memory =
  run_protected @@ fun () ->
  with_tracer trace @@ fun () ->
  match remote with
  | Some addr ->
    run_remote_query ~addr ~engine ~attempts:retry_attempts
      ~budget:retry_budget ~timeout ~max_steps query_strings
  | None ->
  let file =
    match file with
    | Some f -> f
    | None -> fatal ~code:"E003" "query needs FILE (or --remote ADDR with -q)"
  in
  let { Parser.program; queries } = load file in
  let extra =
    List.map
      (fun s ->
        try Parser.parse_query s
        with Parser.Error { line; message; _ } ->
          fatal ~file:"<query>" ~line ~code:"E002" "query %S: %s" s message)
      query_strings
  in
  let queries = queries @ extra in
  if queries = [] then
    fatal ~file ~code:"E003" "no queries (use -q or add ?q(..) :- ..)";
  let inst = Program.instance_of_facts program in
  (* One guard governs the whole invocation: the deadline and memory
     watermark are global, so a query list can never outlive --timeout. *)
  let guard = make_guard ~max_steps ~max_nulls ~timeout ~max_memory () in
  let failed = ref false and degraded = ref false in
  List.iter
    (fun q ->
      match Answer.answer ~guard engine program inst q with
      | Answer.Ok answers -> print_answers q.Query.name answers
      | Answer.Inconsistent f ->
        Format.printf "%s: inconsistent — %a@." q.Query.name Chase.pp_outcome
          (Chase.Failed f);
        failed := true
      | Answer.Degraded { partial; exhaustion } ->
        print_answers ~partial:true q.Query.name partial;
        report_degraded exhaustion;
        degraded := true
      | Answer.Refused d ->
        Printf.printf "%s: refused — %s %s\n" q.Query.name d.Diag.code
          d.Diag.message;
        failed := true)
    queries;
  if !failed then exit_error
  else if !degraded then exit_degraded
  else exit_complete

let query_file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:"Datalog± program file (omit with $(b,--remote)).")

let remote_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "remote" ] ~docv:"ADDR"
        ~doc:
          "Answer against a running $(b,mdqa serve) instead of evaluating \
           locally: a Unix socket path or host:port.  Connection failures \
           and overload sheds are retried with full-jitter exponential \
           backoff.")

let retry_attempts_arg =
  Arg.(
    value & opt int 6
    & info [ "retry-attempts" ] ~docv:"N"
        ~doc:"With --remote: retries allowed per request (0 disables).")

let retry_budget_arg =
  Arg.(
    value & opt float 10.
    & info [ "retry-budget" ] ~docv:"SEC"
        ~doc:
          "With --remote: cumulative backoff sleep allowed per request \
           across all its retries.")

let query_cmd =
  Cmd.v (Cmd.info "query" ~doc:"Answer conjunctive queries over a program.")
    Cterm.(
      const run_query $ query_file_arg $ remote_arg $ retry_attempts_arg
      $ retry_budget_arg $ engine_arg $ query_arg $ trace_arg $ max_steps_arg
      $ max_nulls_arg $ timeout_arg $ max_memory_arg)

(* --- classify -------------------------------------------------------- *)

let run_classify file =
  run_protected @@ fun () ->
  let program =
    if Filename.check_suffix file ".mdq" then
      Mdqa_context.Context.program
        (fst (load_context file)).Mdqa_context.Md_parser.context
    else (load file).Parser.program
  in
  Format.printf "%a@." Analysis.pp (Analysis.analyse program);
  exit_complete

let classify_cmd =
  Cmd.v
    (Cmd.info "classify"
       ~doc:"Report Datalog± class membership and position-graph facts.")
    Cterm.(const run_classify $ file_arg)

(* --- check: static validation, all diagnostics in one pass ----------- *)

let run_diag_check file json =
  run_protected @@ fun () ->
  let diags =
    if Filename.check_suffix file ".mdq" then
      (Mdqa_context.Md_parser.check_file file).Mdqa_context.Md_parser.diags
    else (Validate.check_file file).Validate.diags
  in
  if json then print_endline (Jsonl.to_string (Diag.to_json ~file diags))
  else begin
    List.iter (fun d -> Format.printf "%a@." Diag.pp d) diags;
    Format.printf "%a@." Diag.pp_summary diags
  end;
  Diag.exit_code diags

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate a Datalog± program or .mdq context without running it: \
          report every lexical, syntax and semantic diagnostic (stable \
          codes, file:line:col locations) in one pass.  Exit 0 when clean \
          (hints allowed), 2 on warnings, 1 on errors.")
    Cterm.(const run_diag_check $ file_arg $ json_arg)

(* --- consistency: EGD/NC verdict via the chase ----------------------- *)

let run_consistency file max_steps max_nulls timeout max_memory =
  run_protected @@ fun () ->
  let { Parser.program; _ } = load file in
  let inst = Program.instance_of_facts program in
  let guard = make_guard ~max_steps ~max_nulls ~timeout ~max_memory () in
  let r = Chase.run ~guard program inst in
  (match r.Chase.outcome with
   | Chase.Saturated ->
     print_endline "consistent: all EGDs and constraints satisfied"
   | o -> Format.printf "%a@." Chase.pp_outcome o);
  chase_exit r

let consistency_cmd =
  Cmd.v
    (Cmd.info "consistency"
       ~doc:"Check EGDs and negative constraints (via chase).")
    Cterm.(
      const run_consistency $ file_arg $ max_steps_arg $ max_nulls_arg
      $ timeout_arg $ max_memory_arg)

(* --- context: the full MD quality pipeline over .mdq files ----------- *)

let repair_arg =
  Arg.(
    value & flag
    & info [ "repair" ]
        ~doc:
          "If the data violates the denial constraints, discard a minimal \
           set of offending tuples (subset repair) before assessing, as in \
           the paper's Example 1.")

let load_csv_arg =
  Arg.(
    value & opt_all (pair ~sep:'=' string string) []
    & info [ "load" ] ~docv:"REL=FILE.csv"
        ~doc:
          "Replace (or create) a source relation from a CSV file before \
           assessing.  Repeatable.")

let explain_arg =
  Arg.(
    value & opt int 0
    & info [ "explain" ] ~docv:"N"
        ~doc:
          "Print the derivation tree of up to $(docv) tuples of each \
           quality version (why they were deemed up to quality).")

let run_context file do_repair loads explain_n max_steps max_nulls timeout
    max_memory =
  run_protected @@ fun () ->
  let module Context = Mdqa_context.Context in
  let module Repair = Mdqa_context.Repair in
  let module Md_ontology = Mdqa_multidim.Md_ontology in
  let { Mdqa_context.Md_parser.ontology; context; source; queries }, referential
      =
    load_context file
  in
  (* CSV overrides for source relations *)
  List.iter
    (fun (rel, path) ->
      match R.Csv_io.load_relation_result ~name:rel path with
      | Error errs ->
        report_error_diags
          (List.map
             (fun (e : R.Csv_io.error) ->
               Diag.make ~file:path ~line:e.R.Csv_io.row ~col:e.R.Csv_io.col
                 Diag.Error ~code:"E022" e.R.Csv_io.message)
             errs);
        raise Fatal_diags
      | Ok loaded -> (
        match R.Instance.find source rel with
        | Some existing ->
          if R.Relation.arity existing <> R.Relation.arity loaded then
            fatal ~file:path ~code:"E011"
              "arity %d of %s does not match declared %d"
              (R.Relation.arity loaded) rel (R.Relation.arity existing);
          (* replace contents *)
          R.Relation.iter (fun t -> ignore (R.Relation.remove existing t))
            (R.Relation.copy existing);
          R.Relation.iter (fun t -> ignore (R.Relation.add existing t)) loaded
        | None ->
          fatal ~file ~code:"E013"
            "--load %s: no 'source %s(...)' declaration" rel rel))
    loads;
  (* Static reports. *)
  (match referential with
   | [] -> print_endline "referential constraints (1): satisfied"
   | viols ->
     List.iter
       (fun v -> Format.printf "referential violation: %a@." Md_ontology.pp_violation v)
       viols);
  Format.printf "Datalog± classes:@.%a@." Analysis.pp_classes
    (Md_ontology.classes ontology);
  (* the verdict wraps as it would alone: the label does not move its
     line breaks *)
  Format.printf "EGD separability (categorical positions): %s@."
    (Format.asprintf "%a" Analysis.pp_separability
       (Md_ontology.separability ontology));
  Printf.printf "upward-only: %b\n\n" (Md_ontology.is_upward_only ontology);
  let guard = make_guard ~max_steps ~max_nulls ~timeout ~max_memory () in
  (* Assessment: a saturated chase prints the full report; a degraded
     one prints what was computed before the trip (sound
     under-approximations) and exits 2; a failed one exits 1. *)
  let finish (a : Context.assessment) =
    let partial = Context.degradation a <> None in
    let explain_quality (a : Context.assessment) =
      if explain_n > 0 then
        List.iter
          (fun (orig, _) ->
            match Context.quality_version a orig with
            | Some q ->
              let shown = ref 0 in
              R.Relation.iter
                (fun t ->
                  if !shown < explain_n then begin
                    incr shown;
                    match Context.explain a orig t with
                    | Ok tree ->
                      Printf.printf "why is this %s tuple up to quality?\n"
                        orig;
                      Format.printf "%a@." Explain.pp tree
                    | Error e -> print_endline e
                  end)
                q
            | None -> ())
          context.Context.quality_versions
    in
    Format.printf "chase: %a@.@." Chase.pp_outcome a.Context.chase.Chase.outcome;
    match a.Context.chase.Chase.outcome with
    | Chase.Failed _ -> exit_error
    | Chase.Saturated | Chase.Out_of_budget _ ->
      let title orig =
        orig ^ if partial then " quality version (partial)"
               else " quality version"
      in
      List.iter
        (fun (orig, _) ->
          match Context.quality_version ~partial a orig with
          | Some q ->
            R.Table_fmt.print ~title:(title orig) q;
            print_newline ()
          | None -> Printf.printf "no quality version for %s\n" orig)
        context.Context.quality_versions;
      if not partial then explain_quality a;
      Format.printf "%a@.@." Mdqa_context.Assessment.pp_report
        (Mdqa_context.Assessment.report ~partial a);
      List.iter
        (fun q ->
          match Context.clean_answers ~partial a q with
          | Some answers ->
            print_answers ~partial (q.Query.name ^ " (quality)") answers
          | None -> Printf.printf "%s: no answers (inconsistent)\n" q.Query.name)
        queries;
      (match Context.degradation a with
       | Some e ->
         report_degraded e;
         exit_degraded
       | None -> exit_complete)
  in
  if do_repair then
    match Repair.assess_repaired ~guard context ~source with
    | Ok (a, removed) ->
      if removed <> [] then begin
        print_endline "discarded by repair:";
        List.iter
          (fun d -> Format.printf "  %a@." Repair.pp_deletion d)
          removed;
        print_newline ()
      end;
      finish a
    | Error e -> fatal ~file ~code:"E028" "repair failed: %s" e
  else
    finish (Context.assess ~provenance:(explain_n > 0) ~guard context ~source)

let context_cmd =
  Cmd.v
    (Cmd.info "context"
       ~doc:
         "Run a full multidimensional quality-assessment pipeline from an \
          .mdq context file: classes, constraints, chase, quality versions, \
          quality query answers.")
    Cterm.(
      const run_context $ file_arg $ repair_arg $ load_csv_arg $ explain_arg
      $ max_steps_arg $ max_nulls_arg $ timeout_arg $ max_memory_arg)

(* --- serve: the long-running query service --------------------------- *)

let serve_file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:
          "Datalog± program file to load and chase.  Optional when \
           $(b,--store) names an existing snapshot to warm-start from.")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on a Unix socket at $(docv) (removed on exit).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Listen on TCP $(docv) (see --host).")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Bind address for --port.")

let serve_store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"STORE"
        ~doc:
          "Crash-safe checkpoint store.  An existing snapshot warm-starts \
           the service; the warm fixpoint is snapshotted once, re-written \
           when the image goes missing or a write fails, and on drain, \
           through a circuit breaker that keeps the service answering \
           from memory when the disk misbehaves.")

let max_queue_arg =
  Arg.(
    value & opt int 64
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Admission-queue capacity.  Requests beyond it are shed with an \
           immediate degraded:overload reply instead of queuing without \
           bound.")

let serve_read_timeout_arg =
  Arg.(
    value & opt float 10.
    & info [ "read-timeout" ] ~docv:"SEC"
        ~doc:
          "Seconds a client gets to finish sending a request line (and \
           the server to finish writing a reply) before the connection \
           is dropped.")

let request_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "request-timeout" ] ~docv:"SEC"
        ~doc:
          "Default per-request deadline; a request's own \"timeout\" \
           field takes precedence.  On expiry the request degrades to \
           the partial answer, the server keeps running.")

let request_max_steps_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "request-max-steps" ] ~docv:"N"
        ~doc:"Default per-request step budget (proof-engine search).")

let max_request_bytes_arg =
  Arg.(
    value
    & opt int (1 lsl 20)
    & info [ "max-request-bytes" ] ~docv:"N"
        ~doc:"Longest accepted request line; beyond it the connection is \
              answered E025 and closed.")

let checkpoint_every_arg =
  Arg.(
    value & opt int 64
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Check the snapshot every $(docv) requests and rewrite it \
              only when the image is missing, replaced or failing (0 \
              disables the check).")

let drain_grace_arg =
  Arg.(
    value & opt float 5.
    & info [ "drain-grace" ] ~docv:"SEC"
        ~doc:
          "On SIGTERM/SIGINT: seconds to finish queued requests before \
           the rest are answered degraded:drain and the server exits.")

let workers_arg =
  Arg.(
    value & opt int 0
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Answer queries from a supervised pool of $(docv) forked \
           workers sharing the warm fixpoint copy-on-write.  A crashed \
           worker costs one E029 reply and a backed-off restart; 0 \
           (the default) answers inline, single-process.")

let watchdog_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "watchdog" ] ~docv:"SEC"
        ~doc:
          "Per-request hang deadline for workers: one exceeding it is \
           SIGKILLed and its client answered degraded (W049).  Only \
           meaningful with --workers.")

let min_ready_arg =
  Arg.(
    value & opt int 1
    & info [ "min-ready" ] ~docv:"N"
        ~doc:
          "Live workers required to accept queries; below it queued \
           queries are refused with H054 instead of waiting on a dead \
           pool.")

let worker_max_requests_arg =
  Arg.(
    value & opt int 10_000
    & info [ "worker-max-requests" ] ~docv:"N"
        ~doc:
          "Recycle a worker after it has answered $(docv) requests \
           (bounds leak accumulation; 0 disables).")

let worker_max_heap_arg =
  Arg.(
    value & opt float 0.
    & info [ "worker-max-heap" ] ~docv:"MB"
        ~doc:"Recycle a worker whose heap exceeds $(docv) MiB (0 disables).")

let replica_of_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replica-of" ] ~docv:"ADDR"
        ~doc:
          "Run as a hot standby of the $(b,mdqa serve) primary at $(docv) \
           (Unix socket path or host:port).  The primary's snapshot and \
           journal are shipped into $(b,--store) (required) before \
           serving starts, then followed live; queries are answered \
           read-only with a W050 stale-read tag.  $(b,mdqa promote), or \
           $(b,--promote-after) consecutive missed heartbeats, turns the \
           standby into a primary.")

let repl_interval_arg =
  Arg.(
    value & opt float 1.0
    & info [ "repl-interval" ] ~docv:"SEC"
        ~doc:"Standby heartbeat/poll period against the primary.")

let promote_after_arg =
  Arg.(
    value & opt int 5
    & info [ "promote-after" ] ~docv:"N"
        ~doc:
          "Consecutive missed heartbeats after which the standby declares \
           the primary lost and promotes itself (0 never auto-promotes).")

let scrub_interval_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "scrub-interval" ] ~docv:"SEC"
        ~doc:
          "Continuously re-verify the store's on-disk checksums from the \
           event loop, one bounded step every $(docv) seconds.  A \
           finding trips the checkpoint breaker and triggers a one-shot \
           $(b,store fsck --repair); a standby re-syncs from its \
           primary instead.  Progress is exported as \
           $(b,mdqa_store_scrub_bytes_total) / \
           $(b,mdqa_store_scrub_errors_total).")

let run_serve file socket port host store max_queue read_timeout
    request_timeout request_max_steps max_request_bytes checkpoint_every
    keep_generations drain_grace workers watchdog min_ready
    worker_max_requests worker_max_heap_mb scrub_interval replica_of
    repl_interval promote_after max_steps max_nulls max_checkpoint_bytes
    verbose log_level log_json =
  run_protected @@ fun () ->
  setup_logging ~log_json ?log_level verbose;
  (* Deterministic fault injection for the chaos harness: scripted
     crash/hang/exit at named sites, armed only via the environment. *)
  (match Failpoint.arm_env () with
  | Ok () -> ()
  | Error msg -> fatal ~code:"E024" "MDQA_FAILPOINTS: %s" msg);
  (* A modest always-on tracer backs the protocol's "spans" request:
     the last few thousand spans of live behaviour, introspectable
     without restarting the server. *)
  Trace.install (Trace.create ~capacity:4096 ());
  (* Likewise the cost-attribution profiler backs the "profile"
     request: per-rule/per-atom chase statistics accumulated across
     every request the server evaluates. *)
  Mdqa_obs.Profile.install (Mdqa_obs.Profile.create ());
  let addr =
    match (socket, port) with
    | Some _, Some _ ->
      fatal ~code:"E024" "--socket and --port are mutually exclusive"
    | Some path, None -> Server.Unix_path path
    | None, Some p -> Server.Tcp (host, p)
    | None, None -> fatal ~code:"E024" "serve needs --socket PATH or --port N"
  in
  let guard = Guard.create ~max_steps ~max_nulls ?max_checkpoint_bytes () in
  let cfg svc =
    { Server.addr;
      max_queue;
      max_clients = 128;
      read_timeout;
      write_timeout = read_timeout;
      max_request_bytes;
      request_timeout;
      request_max_steps;
      drain_grace;
      workers;
      watchdog;
      min_ready;
      worker_max_requests;
      worker_max_heap_mb;
      scrub_interval;
      scrub_budget = 65536 }
    |> fun c ->
    Failpoint.attach_metrics (Service.metrics svc);
    c
  in
  match replica_of with
  | Some primary -> (
    (* Standby: sync the primary's store down first, then warm-start
       from the shipped bytes and follow.  Workers are forbidden — a
       standby answers read-only and inline; forked children would
       hold stale copies of a fixpoint that changes on every applied
       frame. *)
    if workers > 0 then
      fatal ~code:"E024" "--workers cannot be combined with --replica-of";
    if file <> None then
      fatal ~code:"E024"
        "--replica-of takes its program from the shipped store; drop the \
         FILE argument";
    let store_path =
      match store with
      | Some s -> s
      | None ->
        fatal ~code:"E024"
          "--replica-of needs --store PATH for the local replica files"
    in
    let metrics = Metrics.create () in
    let follower =
      Replication.Follower.create ~interval:repl_interval
        ~promote_after ~primary ~store_path ~metrics ()
    in
    (match Replication.Follower.initial_sync follower with
    | Error d ->
      report_error_diags [ d ];
      raise Fatal_diags
    | Ok () -> ());
    match
      Service.load_replica ~guard ~metrics ~checkpoint_every
        ~keep_generations ~store:store_path ()
    with
    | Error diags ->
      report_error_diags diags;
      raise Fatal_diags
    | Ok svc -> Server.run ~follower (cfg svc) svc)
  | None -> (
    match
      Service.load ~guard ?store ~checkpoint_every ~keep_generations
        ?program_file:file ()
    with
    | Error diags ->
      report_error_diags diags;
      raise Fatal_diags
    | Ok svc -> Server.run (cfg svc) svc)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve quality queries from a warm chase fixpoint over a \
          line-delimited JSON protocol (Unix socket or TCP).  Admission \
          control sheds overload, each request runs under its own guard \
          fork, \
          a crashed request costs one error reply, checkpoint I/O sits \
          behind a circuit breaker, and SIGTERM drains gracefully \
          (exit 0, or 2 when anything was degraded on the way out).  \
          With $(b,--replica-of) the server runs as a hot standby: \
          snapshot and journal shipped from the primary, followed live, \
          promoted on $(b,mdqa promote) or primary loss.")
    Cterm.(
      const run_serve $ serve_file_arg $ socket_arg $ port_arg $ host_arg
      $ serve_store_arg $ max_queue_arg $ serve_read_timeout_arg
      $ request_timeout_arg $ request_max_steps_arg $ max_request_bytes_arg
      $ checkpoint_every_arg $ keep_generations_arg $ drain_grace_arg
      $ workers_arg $ watchdog_arg $ min_ready_arg $ worker_max_requests_arg
      $ worker_max_heap_arg $ scrub_interval_arg $ replica_of_arg
      $ repl_interval_arg $ promote_after_arg $ max_steps_arg $ max_nulls_arg
      $ max_checkpoint_bytes_arg $ verbose_arg $ log_level_arg $ log_json_arg)

(* --- remote: raw line client (the chaos harness's scalpel) ----------- *)

let read_reply_line fd buf =
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
      let line = String.sub s 0 i in
      let rest = String.length s - i - 1 in
      Buffer.clear buf;
      Buffer.add_substring buf s (i + 1) rest;
      Some line
    | None -> (
      match Unix.read fd chunk 0 4096 with
      | 0 -> None
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> None)
  in
  go ()

(* Burst mode: ship every stdin line in one write, then collect one
   reply per request.  A synchronous client can never overflow the
   server's admission queue; a burst can — which is exactly what the
   chaos harness needs to observe load shedding. *)
let run_remote_burst addr =
  let requests = ref [] in
  (try
     while true do
       let line = input_line stdin in
       if String.trim line <> "" then requests := line :: !requests
     done
   with End_of_file -> ());
  let requests = List.rev !requests in
  let fd = Client.connect addr in
  let buf = Buffer.create 256 in
  let rc = ref exit_complete in
  (match
     Fdio.write_all fd (String.concat "\n" requests ^ "\n")
   with
   | Error e ->
     Format.eprintf "mdqa: write: %s@." e;
     rc := exit_error
   | Ok () ->
     List.iter
       (fun _ ->
         if !rc = exit_complete then
           match read_reply_line fd buf with
           | Some reply -> print_endline reply
           | None ->
             Format.eprintf "mdqa: connection closed by server@.";
             rc := exit_error)
       requests);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  !rc

let run_remote_raw addr slow use_retry burst =
  run_protected @@ fun () ->
  if burst then run_remote_burst addr
  else if use_retry then (
    let client = Client.create ~addr () in
    let rc = ref exit_complete in
    (try
       while true do
         let line = input_line stdin in
         if String.trim line <> "" then
           match Client.roundtrip client line with
           | Ok r -> print_endline (Jsonl.to_string r.Sproto.json)
           | Error e ->
             Format.eprintf "mdqa: %s@." e;
             rc := exit_error
       done
     with End_of_file -> ());
    Client.close client;
    !rc)
  else (
    let fd = Client.connect addr in
    let buf = Buffer.create 256 in
    let rc = ref exit_complete in
    (try
       while true do
         let line = input_line stdin in
         let data = line ^ "\n" in
         (if slow > 0. then
            String.iter
              (fun ch ->
                (match Fdio.write_all fd (String.make 1 ch) with
                 | Ok () -> ()
                 | Error e -> failwith ("write: " ^ e));
                Fdio.sleepf slow)
              data
          else
            match Fdio.write_all fd data with
            | Ok () -> ()
            | Error e -> failwith ("write: " ^ e));
         match read_reply_line fd buf with
         | Some reply -> print_endline reply
         | None ->
           Format.eprintf "mdqa: connection closed by server@.";
           raise Exit
       done
     with
    | End_of_file -> ()
    | Exit -> rc := exit_error);
    (try Unix.close fd with Unix.Unix_error _ -> ());
    !rc)

let remote_addr_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"ADDR"
        ~doc:
          "Unix socket path or host:port of mdqa serve.  A comma-separated \
           list (e.g. $(b,primary:7401,standby:7401)) enables failover: \
           when a connect is refused the client rotates to the next \
           endpoint on the retry path ($(b,--retry)).")

let slow_arg =
  Arg.(
    value & opt float 0.
    & info [ "slow" ] ~docv:"SEC"
        ~doc:
          "Dribble each request one byte every $(docv) seconds \
           (slow-loris injection for the chaos harness).")

let raw_retry_arg =
  Arg.(
    value & flag
    & info [ "retry" ]
        ~doc:"Retry transient failures with full-jitter backoff instead \
              of failing on the first.")

let burst_arg =
  Arg.(
    value & flag
    & info [ "burst" ]
        ~doc:
          "Send every stdin line in one write before reading any reply \
           (overload injection), instead of one request-reply at a time.")

let remote_cmd =
  Cmd.v
    (Cmd.info "remote"
       ~doc:
         "Raw protocol client: read request lines from stdin, send them to \
          a running $(b,mdqa serve), print one reply line each to stdout.  \
          Exit 1 if the server drops the connection.")
    Cterm.(
      const run_remote_raw $ remote_addr_arg $ slow_arg $ raw_retry_arg
      $ burst_arg)

(* --- metrics: scrape a running server -------------------------------- *)

let metrics_remote_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "remote" ] ~docv:"ADDR"
        ~doc:"Unix socket path or host:port of a running $(b,mdqa serve).")

let spans_flag_arg =
  Arg.(
    value & flag
    & info [ "spans" ]
        ~doc:
          "Fetch the server's buffered trace spans (JSON list) instead \
           of the metrics exposition.")

let run_metrics addr spans attempts budget =
  run_protected @@ fun () ->
  let policy = Backoff.policy ~max_attempts:attempts ~budget () in
  let client = Client.create ~policy ~addr () in
  let kind = if spans then "spans" else "metrics" in
  let req = Jsonl.to_string (Jsonl.Obj [ ("kind", Jsonl.Str kind) ]) in
  let rc =
    match Client.roundtrip client req with
    | Error e ->
      Logger.error e;
      exit_error
    | Ok r ->
      if spans then (
        match Jsonl.member "spans" r.Sproto.json with
        | Some v ->
          print_endline (Jsonl.to_string v);
          exit_complete
        | None ->
          Logger.error "reply carries no \"spans\" field";
          exit_error)
      else (
        match
          Option.bind (Jsonl.member "exposition" r.Sproto.json) Jsonl.to_str
        with
        | Some text ->
          print_string text;
          exit_complete
        | None ->
          Logger.error "reply carries no \"exposition\" field";
          exit_error)
  in
  Client.close client;
  rc

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Scrape a running $(b,mdqa serve): print its metrics registry \
          as a Prometheus text exposition (request latency histogram, \
          admission queue depth, shed/crash counters, breaker state, \
          chase and store counters), or with $(b,--spans) the tracer's \
          buffered spans as JSON.")
    Cterm.(
      const run_metrics $ metrics_remote_arg $ spans_flag_arg
      $ retry_attempts_arg $ retry_budget_arg)

(* --- promote: turn a standby into a primary -------------------------- *)

let promote_remote_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "remote" ] ~docv:"ADDR"
        ~doc:"Unix socket path or host:port of the standby to promote.")

let run_promote addr attempts budget =
  run_protected @@ fun () ->
  let policy = Backoff.policy ~max_attempts:attempts ~budget () in
  let client = Client.create ~policy ~addr () in
  let req = Jsonl.to_string (Jsonl.Obj [ ("kind", Jsonl.Str "promote") ]) in
  let rc =
    match Client.roundtrip client req with
    | Error e ->
      Logger.error e;
      exit_error
    | Ok r ->
      print_endline (Jsonl.to_string r.Sproto.json);
      if r.Sproto.status = "complete" then exit_complete else exit_error
  in
  Client.close client;
  rc

let promote_cmd =
  Cmd.v
    (Cmd.info "promote"
       ~doc:
         "Promote a running $(b,mdqa serve) standby to primary: it stops \
          following, takes ownership of its store (periodic store \
          checks start, one checkpoint forced immediately) and starts \
          answering without the stale-read tag.  Idempotent: promoting \
          a primary reports promoted:false and exits 0.")
    Cterm.(
      const run_promote $ promote_remote_arg $ retry_attempts_arg
      $ retry_budget_arg)

(* --- trace: validate exported trace files ---------------------------- *)

let require_arg =
  Arg.(
    value & opt_all string []
    & info [ "require" ] ~docv:"NAME"
        ~doc:
          "Fail unless an event named $(docv) is present in the trace.  \
           Repeatable.")

(* The checker accepts exactly what chrome://tracing accepts: a
   traceEvents array of objects with string name/ph and numeric
   ts/pid/tid, complete events ("X") carrying a non-negative dur. *)
let run_trace_verify file requires =
  run_protected @@ fun () ->
  let text = read_file file in
  match Jsonl.parse text with
  | Error e -> fatal ~file ~code:"E024" "invalid JSON: %s" e
  | Ok json ->
    let events =
      match Option.bind (Jsonl.member "traceEvents" json) Jsonl.to_list with
      | Some evs -> evs
      | None -> fatal ~file ~code:"E024" "no \"traceEvents\" array"
    in
    let bad = ref 0 in
    let names = Hashtbl.create 64 in
    List.iteri
      (fun i ev ->
        let str k = Option.bind (Jsonl.member k ev) Jsonl.to_str in
        let num k = Option.bind (Jsonl.member k ev) Jsonl.to_num in
        let problem fmt =
          Printf.ksprintf
            (fun m ->
              incr bad;
              Logger.error ~fields:[ ("event", Logger.Int i) ] m)
            fmt
        in
        (match str "name" with
         | Some n -> Hashtbl.replace names n ()
         | None -> problem "missing string \"name\"");
        (match str "ph" with
         | Some "X" -> (
           match num "dur" with
           | Some d when d >= 0. -> ()
           | Some _ -> problem "negative \"dur\""
           | None -> problem "complete event without numeric \"dur\"")
         | Some "i" -> ()
         | Some ph -> problem "unexpected phase %S" ph
         | None -> problem "missing string \"ph\"");
        if num "ts" = None then problem "missing numeric \"ts\"";
        if num "pid" = None then problem "missing numeric \"pid\"";
        if num "tid" = None then problem "missing numeric \"tid\"")
      events;
    let missing =
      List.filter (fun r -> not (Hashtbl.mem names r)) requires
    in
    List.iter
      (fun r ->
        Logger.error ~fields:[ ("name", Logger.Str r) ]
          "required event name absent from trace")
      missing;
    if !bad > 0 || missing <> [] then
      fatal ~file ~code:"E024"
        "trace verification failed: %d malformed events, %d required \
         names missing"
        !bad (List.length missing)
    else begin
      Printf.printf "trace OK: %d events, %d distinct names\n"
        (List.length events) (Hashtbl.length names);
      exit_complete
    end

let trace_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:"Trace file written by $(b,--trace) or the spans request.")

let trace_verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Validate a trace file against the Chrome trace-event shape \
          (string name/ph, numeric ts/pid/tid, non-negative dur on \
          complete events).  Exit 0 when well formed and every \
          $(b,--require)d event name is present; 1 otherwise.")
    Cterm.(const run_trace_verify $ trace_file_arg $ require_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Inspect span traces written by $(b,--trace).")
    [ trace_verify_cmd ]

(* --- profile: cost attribution for the engine ------------------------ *)

module Profile = Mdqa_obs.Profile

let top_arg =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"N"
        ~doc:"Rows shown in the hot-rule and hot-atom tables.")

let take n l = List.filteri (fun i _ -> i < n) l

(* Human report: phases first (the totals everything else attributes
   into), then the hot tables, then the EXPLAIN-style per-rule plans. *)
let print_profile_report ~top snap (tgds : Tgd.t list) =
  let pf = Printf.printf in
  if snap.Profile.phases <> [] then begin
    pf "phases:\n";
    List.iter
      (fun (name, p) ->
        pf "  %-12s calls=%-4d time=%.6fs\n" name p.Profile.calls
          p.Profile.phase_seconds)
      snap.Profile.phases;
    print_newline ()
  end;
  let hot_rules =
    List.sort
      (fun (_, a) (_, b) ->
        compare (b.Profile.rule_seconds, b.Profile.triggers)
          (a.Profile.rule_seconds, a.Profile.triggers))
      snap.Profile.rules
  in
  pf "hot rules (top %d of %d, by attributed time):\n" top
    (List.length hot_rules);
  pf "  %-32s %8s %10s %10s %12s %10s %10s %10s %10s\n" "rule" "fires"
    "triggers" "matches" "seconds" "enumerate" "probe" "insert" "other";
  List.iter
    (fun (name, r) ->
      pf "  %-32s %8d %10d %10d %12.6f %10.6f %10.6f %10.6f %10.6f\n" name
        r.Profile.fires r.Profile.triggers r.Profile.matches
        r.Profile.rule_seconds r.Profile.enumerate_seconds
        r.Profile.probe_seconds r.Profile.insert_seconds
        (Profile.bookkeeping_seconds r))
    (take top hot_rules);
  print_newline ();
  let hot_atoms =
    List.sort
      (fun (_, (a : Profile.atom_stat)) (_, b) ->
        compare (b.Profile.scanned, b.Profile.matched)
          (a.Profile.scanned, a.Profile.matched))
      snap.Profile.atoms
  in
  pf "hot atoms (top %d of %d, by tuples scanned):\n" top
    (List.length hot_atoms);
  pf "  %-40s %-12s %10s %10s %10s %10s %12s\n" "rule[atom] predicate" "access"
    "visits" "scanned" "matched" "fan-out" "selectivity";
  List.iter
    (fun ((scope, idx, pred), a) ->
      pf "  %-40s %-12s %10d %10d %10d %10.3f %12.3f\n"
        (Printf.sprintf "%s[%d] %s" scope idx pred)
        a.Profile.key a.Profile.visits a.Profile.scanned a.Profile.matched
        (Profile.fan_out a) (Profile.selectivity a))
    (take top hot_atoms);
  print_newline ();
  if snap.Profile.queries <> [] then begin
    pf "queries:\n";
    List.iter
      (fun (name, q) ->
        pf "  %-32s evals=%-6d time=%.6fs\n" name q.Profile.evals
          q.Profile.query_seconds)
      snap.Profile.queries;
    print_newline ()
  end;
  if snap.Profile.rounds <> [] then begin
    pf "rounds:\n";
    List.iter
      (fun (n, r) ->
        pf
          "  round %-3d time=%.6fs  gc: minor=%d major=%d  heap=%d words\n"
          n r.Profile.round_seconds r.Profile.minor_collections
          r.Profile.major_collections r.Profile.heap_words)
      snap.Profile.rounds;
    print_newline ()
  end;
  if tgds <> [] then begin
    pf "plan (per-rule, body atoms in executed order):\n";
    Format.printf "%a@." Explain.pp_cost
      (take top (Explain.cost snap tgds))
  end

let profile_finish ~json ~top snap tgds exit_code =
  if json then print_endline (Jsonl.to_string (Profile.to_json snap))
  else print_profile_report ~top snap tgds;
  exit_code

let with_profiler f =
  let p = Profile.create () in
  Profile.install p;
  Fun.protect ~finally:Profile.uninstall (fun () -> f p)

let run_profile_chase file json top oblivious max_steps max_nulls timeout
    max_memory =
  run_protected @@ fun () ->
  let { Parser.program; _ } = load file in
  let inst = Program.instance_of_facts program in
  let variant = if oblivious then Chase.Oblivious else Chase.Restricted in
  let guard = make_guard ~max_steps ~max_nulls ~timeout ~max_memory () in
  with_profiler @@ fun p ->
  let r = Chase.run ~variant ~guard program inst in
  (match r.Chase.outcome with
  | Chase.Out_of_budget e -> report_degraded e
  | _ -> ());
  profile_finish ~json ~top (Profile.snapshot p)
    program.Program.tgds (chase_exit r)

(* `profile assess` profiles the assessment workload: the full .mdq
   pipeline (chase + quality-query evaluation), or for a plain .dl
   program the chase plus its embedded queries — so per-CQ timings are
   populated either way.  Parsing and validation are the "parse" phase
   on both. *)
let run_profile_assess file json top max_steps max_nulls timeout max_memory
    =
  run_protected @@ fun () ->
  let guard = make_guard ~max_steps ~max_nulls ~timeout ~max_memory () in
  with_profiler @@ fun p ->
  if Filename.check_suffix file ".mdq" then begin
    let module Context = Mdqa_context.Context in
    let { Mdqa_context.Md_parser.context; source; queries; _ }, _ =
      Trace.with_span "parse" @@ fun () -> load_context file
    in
    let a = Context.assess ~guard context ~source in
    let partial = Context.degradation a <> None in
    List.iter
      (fun q -> ignore (Context.clean_answers ~partial a q))
      queries;
    profile_finish ~json ~top (Profile.snapshot p)
      (Context.program context).Program.tgds (chase_exit a.Context.chase)
  end
  else begin
    let { Parser.program; queries } =
      Trace.with_span "parse" @@ fun () -> load file
    in
    let inst = Program.instance_of_facts program in
    let r =
      Trace.with_span "assess" @@ fun () ->
      let r = Chase.run ~guard program inst in
      List.iter (fun q -> ignore (Answer.of_fixpoint ~guard r q)) queries;
      r
    in
    profile_finish ~json ~top (Profile.snapshot p)
      program.Program.tgds (chase_exit r)
  end

let profile_chase_cmd =
  Cmd.v
    (Cmd.info "chase"
       ~doc:
         "Chase a program under the cost-attribution profiler and report \
          per-rule fire/trigger/match counts and time, per-atom join \
          selectivities, per-round wall time and GC deltas.")
    Cterm.(
      const run_profile_chase $ file_arg $ json_arg $ top_arg
      $ oblivious_arg $ max_steps_arg $ max_nulls_arg $ timeout_arg
      $ max_memory_arg)

let profile_assess_cmd =
  Cmd.v
    (Cmd.info "assess"
       ~doc:
         "Profile a quality assessment: for an .mdq context the full \
          pipeline (chase plus quality queries), for a Datalog± file the \
          chase plus its embedded queries.  Reports hot rules, hot atoms, \
          per-query timings and an EXPLAIN-style per-rule plan view.")
    Cterm.(
      const run_profile_assess $ file_arg $ json_arg $ top_arg
      $ max_steps_arg $ max_nulls_arg $ timeout_arg $ max_memory_arg)

let profile_cmd =
  Cmd.group
    (Cmd.info "profile"
       ~doc:
         "Cost-attribution profiling: which rule, which body atom, which \
          query the engine spends its time on.  Off by default elsewhere; \
          these subcommands install the profiler for one run.")
    [ profile_chase_cmd; profile_assess_cmd ]

let main_cmd =
  Cmd.group
    (Cmd.info "mdqa" ~version:"1.0.0"
       ~doc:
         "Multidimensional ontological contexts for data quality \
          assessment — Datalog± engine CLI.")
    [ chase_cmd; resume_cmd; store_cmd; query_cmd; classify_cmd; check_cmd;
      consistency_cmd; context_cmd; serve_cmd; remote_cmd; metrics_cmd;
      promote_cmd; trace_cmd; profile_cmd ]

let () = exit (Cmd.eval' main_cmd)
