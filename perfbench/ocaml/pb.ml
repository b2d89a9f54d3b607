(* Companion program of the repository benchmark (see ../README.md).

     pb gen   WORKLOAD SEED DIR          write the workload's input files
     pb ref   WORKLOAD SEED DIR          write the reference answers
     pb load  SOCKET DIR SECONDS SLICE CAL OUT
                                         closed-loop load on a live server,
                                         in slices between calibration runs
     pb trace WORKLOAD SEED DIR SECONDS OUT
                                         traced in-process run

   WORKLOAD is assess-hospital, egd-merge or serve-hospital.  Every
   input is derived from SEED; the mdqa binary only ever sees the
   generated files.  The traced run calls the same public functions the
   CLI and the server call, in the same order, and records a span around
   each call from this file: nothing inside the library is
   instrumented for the benchmark. *)

module R = Mdqa_relational
module D = Mdqa_datalog
module Ctx = Mdqa_context.Context
module Md_parser = Mdqa_context.Md_parser
module Md_ontology = Mdqa_multidim.Md_ontology
module H = Mdqa_hospital.Hospital
module Store = Mdqa_store.Store
module Service = Mdqa_server.Service
module Protocol = Mdqa_server.Protocol
module Client = Mdqa_server.Client
module Jsonl = Mdqa_server.Jsonl
module Trace = Mdqa_obs.Trace
module Profile = Mdqa_obs.Profile
module Metrics = Mdqa_obs.Metrics

let now = D.Guard.Clock.now

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("pb: " ^ s);
      exit 1)
    fmt

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let lines path =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file path))

let rng seed salt = Random.State.make [| seed; salt |]

(* The CLI's default chase budgets, so in-process runs do what
   [mdqa context] and [mdqa chase] do. *)
let cli_guard () = D.Guard.create ~max_steps:1_000_000 ~max_nulls:100_000 ()

let fresh_dir path =
  if Sys.file_exists path then
    Array.iter (fun f -> Sys.remove (Filename.concat path f)) (Sys.readdir path)
  else Unix.mkdir path 0o755

(* --- assess-hospital --------------------------------------------------- *)

(* 160 patients (6,400 measurements): the .mdq front end grows
   super-quadratically, so 320 patients would cost about 50 s per
   operation. *)
let hospital = H.Gen.scale 160

let doctor_query seed =
  let r = rng seed 1 in
  let patient = H.Gen.patient_name (1 + Random.State.int r hospital.H.Gen.patients) in
  let day = H.Gen.day_name (1 + Random.State.int r hospital.H.Gen.days) in
  let v = D.Term.var and c = D.Term.sym in
  D.Query.make ~name:"doctor"
    ~cmps:
      [ D.Atom.Cmp.make D.Atom.Cmp.Eq (v "P") (c patient);
        D.Atom.Cmp.make D.Atom.Cmp.Ge (v "T") (c day);
        D.Atom.Cmp.make D.Atom.Cmp.Le (v "T") (c (day ^ "~")) ]
    ~head:[ v "T"; v "P"; v "V" ]
    [ D.Atom.make "measurements" [ v "T"; v "P"; v "V" ] ]

let qv_title = "measurements quality version"

(* The answer listing exactly as [mdqa context] prints it. *)
let answers_block name answers =
  let b = Buffer.create 256 in
  Buffer.add_string b (name ^ " (quality):");
  if answers = [] then Buffer.add_string b " (no certain answers)";
  Buffer.add_char b '\n';
  List.iter
    (fun t -> Buffer.add_string b (Format.asprintf "  %a\n" R.Tuple.pp t))
    answers;
  Buffer.contents b

let gen_assess seed dir =
  write_file
    (Filename.concat dir "hospital.mdq")
    (Mdqa_context.Md_pretty.context_to_string
       ~source:(H.Gen.source hospital)
       ~queries:[ doctor_query seed ]
       (H.Gen.context hospital))

(* The reference is built from the generator's own context, not from the
   .mdq text, so it also checks that the front end reads back what the
   pretty-printer wrote. *)
let ref_assess seed dir =
  let ctx = H.Gen.context hospital and source = H.Gen.source hospital in
  let a = Ctx.assess ctx ~source in
  let qv =
    match Ctx.quality_version a "measurements" with
    | Some qv -> qv
    | None -> die "reference assessment has no quality version"
  in
  let q = doctor_query seed in
  let answers = Option.value ~default:[] (Ctx.clean_answers a q) in
  write_file
    (Filename.concat dir "expected.json")
    (Jsonl.to_string
       (Jsonl.Obj
          [ ("qv_rows", Jsonl.Num (float_of_int (R.Relation.cardinal qv)));
            ("qv_table", Jsonl.Str (R.Table_fmt.render ~title:qv_title qv));
            ("answers", Jsonl.Str (answers_block q.D.Query.name answers)) ]))

(* --- egd-merge --------------------------------------------------------- *)

(* 60 patients over 20 days in 10 units of 2 wards (2 institutions), one
   patient-day in four discharged: 300 EGD merges, so merging dominates
   the chase. *)
let egd_patients = 60
let egd_days = 20
let egd_wards = 20
let egd_wards_per_unit = 2
let egd_units_per_institution = 5
let egd_patient_days = egd_patients * egd_days
let egd_discharged = egd_patient_days / 4

let gen_egd seed dir =
  let b = Buffer.create (1 lsl 16) in
  let add fmt = Printf.bprintf b fmt in
  let ward w = Printf.sprintf "w%02d" w in
  let unit_of_ward w = w / egd_wards_per_unit in
  let unit u = Printf.sprintf "u%02d" u in
  let inst_of_unit u = Printf.sprintf "h%d" (u / egd_units_per_institution) in
  let patient p = Printf.sprintf "p%03d" p in
  let day d = Printf.sprintf "d%02d" d in
  let ward_of p = p mod egd_wards in
  add "%% egd-merge benchmark input (seed %d): the paper's hospital shape.\n"
    seed;
  add "%% Hospital dimension: Ward -> Unit -> Institution\n";
  for w = 0 to egd_wards - 1 do
    add "unit_ward(%s, %s).\n" (unit (unit_of_ward w)) (ward w)
  done;
  for u = 0 to (egd_wards / egd_wards_per_unit) - 1 do
    add "institution_unit(%s, %s).\n" (inst_of_unit u) (unit u)
  done;
  add "%% patients per ward and day\n";
  for p = 0 to egd_patients - 1 do
    for d = 0 to egd_days - 1 do
      add "patient_ward(%s, %s, %s).\n" (ward (ward_of p)) (day d) (patient p)
    done
  done;
  (* exactly one patient-day in four, chosen by the seed *)
  let days = Array.init egd_patient_days Fun.id in
  let r = rng seed 3 in
  for i = egd_patient_days - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let t = days.(i) in
    days.(i) <- days.(j);
    days.(j) <- t
  done;
  let discharged = Array.sub days 0 egd_discharged in
  Array.sort compare discharged;
  add "%% discharges, recorded per institution only (Table V)\n";
  Array.iter
    (fun k ->
      let p = k / egd_days and d = k mod egd_days in
      add "discharge_patients(%s, %s, %s).\n"
        (inst_of_unit (unit_of_ward (ward_of p)))
        (day d) (patient p))
    discharged;
  add
    "%% rule (9) in form (10): a discharged patient was in some unknown unit\n\
     institution_unit(I, U), patient_unit(U, D, P) :- discharge_patients(I, D, P).\n\
     %% rule (7): upward navigation Ward -> Unit derives the known unit\n\
     patient_unit(U, D, P) :- patient_ward(W, D, P), unit_ward(U, W).\n\
     %% one unit per patient per day: merges each unknown unit into the known one\n\
     U1 = U2 :- patient_unit(U1, D, P), patient_unit(U2, D, P).\n";
  write_file (Filename.concat dir "merge.dl") (Buffer.contents b)

(* Counted from the generator's shape, independently of the chase. *)
let egd_expected_facts =
  egd_wards + (egd_wards / egd_wards_per_unit) + egd_patient_days
  + egd_discharged + egd_patient_days

let ref_egd dir =
  write_file
    (Filename.concat dir "expected.json")
    (Printf.sprintf "{\"nulls\": %d, \"merges\": %d, \"facts\": %d}"
       egd_discharged egd_discharged egd_expected_facts)

(* --- serve-hospital ---------------------------------------------------- *)

let serve_requests = 20_000

let gen_serve seed dir =
  let ctx = H.Gen.context hospital in
  let prepared = Ctx.prepare ctx ~source:(H.Gen.source hospital) in
  let p = Ctx.program ctx in
  let facts = ref [] in
  R.Instance.iter_facts
    (fun pred t -> facts := D.Atom.of_fact pred t :: !facts)
    prepared;
  let program =
    D.Program.make ~tgds:p.D.Program.tgds ~egds:p.D.Program.egds
      ~ncs:p.D.Program.ncs ~facts:(List.rev !facts) ()
  in
  write_file (Filename.concat dir "hospital.dl")
    (D.Pretty.program_to_string program);
  (* 60% point lookups by patient, 30% a join for one day, 10% the
     shifts of one day (rows with labelled nulls) *)
  let r = rng seed 2 in
  let patient () =
    H.Gen.patient_name (1 + Random.State.int r hospital.H.Gen.patients)
  in
  let day () = H.Gen.day_name (1 + Random.State.int r hospital.H.Gen.days) in
  let b = Buffer.create (serve_requests * 100) in
  for _ = 1 to serve_requests do
    let x = Random.State.int r 10 in
    let cls, q =
      if x < 6 then
        ("point", Printf.sprintf "q(T, V) :- measurements_q(T, \"%s\", V)"
                    (patient ()))
      else if x < 9 then
        let d = day () in
        ( "join",
          Printf.sprintf
            "q(U, P, N) :- patient_unit(U, \"%s\", P), \
             working_schedules(U, \"%s\", N, C)"
            d d )
      else ("scan", Printf.sprintf "q(W, N) :- shifts(W, \"%s\", N, S)" (day ()))
    in
    Buffer.add_string b
      (Jsonl.to_string
         (Jsonl.Obj
            [ ("kind", Jsonl.Str "query"); ("id", Jsonl.Str cls);
              ("query", Jsonl.Str q) ]));
    Buffer.add_char b '\n'
  done;
  write_file (Filename.concat dir "requests.jsonl") (Buffer.contents b)

(* (class, query text) of each request line, in stream order. *)
let read_requests dir =
  Array.of_list
    (List.map
       (fun line ->
         match Protocol.parse_request line with
         | Ok (Protocol.Query { id = Some (Jsonl.Str cls); query; _ }) ->
           (line, cls, query)
         | _ -> die "bad request line %s" line)
       (lines (Filename.concat dir "requests.jsonl")))

(* The reply a correct server sends for each distinct query: its certain
   answers over the fixpoint of the same .dl file. *)
let ref_serve dir =
  let parsed = D.Parser.parse_file (Filename.concat dir "hospital.dl") in
  let program = parsed.D.Parser.program in
  let r = D.Chase.run program (D.Program.instance_of_facts program) in
  if r.D.Chase.outcome <> D.Chase.Saturated then die "reference chase failed";
  let seen = Hashtbl.create 512 in
  let b = Buffer.create (1 lsl 20) in
  Array.iter
    (fun (_, _, query) ->
      if not (Hashtbl.mem seen query) then begin
        Hashtbl.add seen query ();
        let answers =
          D.Query.certain r.D.Chase.instance (D.Parser.parse_query query)
        in
        Buffer.add_string b
          (Protocol.complete_reply ~id:(Jsonl.Str query)
             ~answers:(Some answers) ())
      end)
    (read_requests dir);
  write_file (Filename.concat dir "expected.jsonl") (Buffer.contents b)

(* query text -> expected answers, as a client reads them *)
let serve_expected dir =
  let tbl = Hashtbl.create 512 in
  List.iter
    (fun line ->
      match Protocol.parse_reply line with
      | Ok { Protocol.id = Some (Jsonl.Str q); answers; _ } ->
        Hashtbl.replace tbl q answers
      | _ -> die "bad expected line")
    (lines (Filename.concat dir "expected.jsonl"));
  tbl

let reply_ok expected query (reply : Protocol.reply) =
  reply.Protocol.status = "complete"
  && Some reply.Protocol.answers = Hashtbl.find_opt expected query

(* --- load generator ---------------------------------------------------- *)

(* Wall time of one run of the calibration program [cal], its output
   discarded. *)
let calibrate cal =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process cal [| cal |] Unix.stdin devnull Unix.stderr in
  let _, status = Unix.waitpid [] pid in
  let dt = Unix.gettimeofday () -. t0 in
  Unix.close devnull;
  if status <> Unix.WEXITED 0 then die "calibration program %s failed" cal;
  dt

(* A closed loop over two connections, one thread each: a connection
   sends its next request only when the previous reply arrived, as
   [mdqa query --remote] callers do.  Threads, not domains: the client
   then uses at most one core and leaves the other to the server.  A
   failed, shed-and-retried-out or wrong reply is recorded as failed; its
   latency still counts.  The loop runs in slices of [slice] seconds with
   the server idle between them, while the calibration program runs: once
   before the first slice and once after each, all within [seconds].  The
   request stream and the connections carry on across slices. *)
let load socket dir seconds slice cal out =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let requests = read_requests dir in
  let expected = serve_expected dir in
  let n = Array.length requests in
  let clients = Array.init 2 (fun _ -> Client.create ~addr:socket ()) in
  let next = Array.init 2 Fun.id in
  let finish = Unix.gettimeofday () +. seconds in
  let cals = ref [ calibrate cal ] and slices = ref [] and ops = ref [] in
  let k = ref 0 in
  while Unix.gettimeofday () < finish do
    let t0 = Unix.gettimeofday () in
    let deadline = Float.min finish (t0 +. slice) in
    let connection c () =
      let done_ = ref [] in
      while Unix.gettimeofday () < deadline do
        let line, cls, query = requests.(next.(c) mod n) in
        let t0 = Unix.gettimeofday () in
        let r = Client.roundtrip clients.(c) line in
        let dt = Unix.gettimeofday () -. t0 in
        let ok = match r with Ok rep -> reply_ok expected query rep | Error _ -> false in
        done_ := (!k, cls, dt, ok) :: !done_;
        next.(c) <- next.(c) + 2
      done;
      !done_
    in
    let results = Array.make 2 [] in
    List.iter Thread.join
      (List.init 2 (fun c ->
           Thread.create (fun () -> results.(c) <- connection c ()) ()));
    slices := (Unix.gettimeofday () -. t0) :: !slices;
    ops := List.rev_append results.(0) (List.rev_append results.(1) !ops);
    cals := calibrate cal :: !cals;
    incr k
  done;
  let retries = Array.fold_left (fun acc c -> acc + Client.retries c) 0 clients in
  Array.iter Client.close clients;
  let floats l = String.concat ", " (List.rev_map (Printf.sprintf "%.9f") l) in
  let b = Buffer.create (1 lsl 20) in
  Printf.bprintf b "{\"retries\": %d, \"cal\": [%s], \"slices\": [%s], \"ops\": ["
    retries (floats !cals) (floats !slices);
  List.iteri
    (fun j (k, cls, dt, ok) ->
      Printf.bprintf b "%s[%d, \"%s\", %.9f, %b]"
        (if j = 0 then "" else ", ")
        k cls dt ok)
    !ops;
  Buffer.add_string b "]}\n";
  write_file out (Buffer.contents b)

(* --- traced run -------------------------------------------------------- *)

let span = Trace.with_span

(* Layer spans by the per-layer metric their self time feeds, in table
   order: the spans this file records, plus three the library emits
   itself — egd.merge (the merge path), and on serve-hospital validate
   and chase.round (the parse and warm chase inside Service.load).  Other
   library spans (rule.fire, eval, store.checkpoint, ...) are not layers
   and count toward their enclosing layer. *)
let layers =
  [ ("op", "trace.remainder_s");
    ("md_parser.check", "md_parser.check_s");
    ("parser.parse", "parser.parse_s");
    ("validate", "parser.parse_s");
    ("md_ontology.static", "md_ontology.static_s");
    ("context.prepare", "context.prepare_s");
    ("chase.run", "chase.run_s");
    ("chase.round", "chase.run_s");
    ("context.quality_version", "context.quality_version_s");
    ("table_fmt.render", "table_fmt.render_s");
    ("assessment.report", "assessment.report_s");
    ("context.clean_answers", "context.clean_answers_s");
    ("egd.merge", "chase.egd_merge_s");
    ("store.hook", "store.hook_s");
    ("store.load", "store.load_s");
    ("service.load", "service.load_s");
    ("protocol.parse_request", "protocol.parse_request_s");
    ("service.query.point", "service.query_s.point");
    ("service.query.join", "service.query_s.join");
    ("service.query.scan", "service.query_s.scan");
    ("protocol.reply", "protocol.reply_s");
    ("service.request_served", "service.request_served_s") ]

let layer_metrics =
  List.fold_left
    (fun acc (_, m) -> if List.mem m acc then acc else acc @ [ m ])
    [] layers

type self_time = {
  mutable in_op : float;  (** self seconds inside timed operations *)
  mutable outside : float;  (** self seconds outside them (set-up, checks) *)
  mutable roots : int;  (** outermost layer spans the outside part came from *)
}

(* A layer's self time is its span's duration minus the part covered by
   the layer spans directly inside it.  Returns metric -> self_time. *)
let self_times events =
  let evs =
    Array.of_list
      (List.filter (fun e -> List.mem_assoc e.Trace.name layers) events)
  in
  Array.stable_sort
    (fun a b ->
      match compare a.Trace.ts b.Trace.ts with
      | 0 -> compare b.Trace.dur a.Trace.dur
      | c -> c)
    evs;
  let self = Array.map (fun e -> e.Trace.dur) evs in
  let in_op = Array.make (Array.length evs) false in
  let root = Array.make (Array.length evs) 0 in
  let stack = ref [] in
  Array.iteri
    (fun i e ->
      let contains j =
        e.Trace.ts +. e.Trace.dur <= evs.(j).Trace.ts +. evs.(j).Trace.dur +. 1e-9
      in
      let rec pop () =
        match !stack with
        | j :: rest when not (contains j) ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
       | j :: _ ->
         self.(j) <- self.(j) -. e.Trace.dur;
         in_op.(i) <- in_op.(j);
         root.(i) <- root.(j)
       | [] ->
         in_op.(i) <- e.Trace.name = "op";
         root.(i) <- i);
      stack := i :: !stack)
    evs;
  let tbl = Hashtbl.create 32 in
  let roots = Hashtbl.create 32 in
  Array.iteri
    (fun i e ->
      let metric = List.assoc e.Trace.name layers in
      let t =
        match Hashtbl.find_opt tbl metric with
        | Some t -> t
        | None ->
          let t = { in_op = 0.; outside = 0.; roots = 0 } in
          Hashtbl.add tbl metric t;
          t
      in
      if in_op.(i) then t.in_op <- t.in_op +. self.(i)
      else begin
        t.outside <- t.outside +. self.(i);
        if not (Hashtbl.mem roots (metric, root.(i))) then begin
          Hashtbl.add roots (metric, root.(i)) ();
          t.roots <- t.roots + 1
        end
      end)
    evs;
  tbl

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* What one traced run collects besides spans. *)
type acc = {
  mutable traced : float list;  (** traced op wall times *)
  mutable untraced : float list;
  mutable failed : int;
  mutable majors : int;  (** GC major collections over traced ops *)
  counts : (string, float) Hashtbl.t;  (** summed over traced ops *)
}

let new_acc () =
  { traced = []; untraced = []; failed = 0; majors = 0;
    counts = Hashtbl.create 16 }

let count acc name v =
  Hashtbl.replace acc.counts name
    (v +. Option.value ~default:0. (Hashtbl.find_opt acc.counts name))

let chase_counts acc m =
  let s = Metrics.snapshot m in
  let c name = float_of_int (Metrics.counter_total s name) in
  count acc "chase.rounds" (c "mdqa_chase_rounds_total");
  count acc "chase.triggers" (c "mdqa_chase_triggers_total");
  count acc "chase.fires" (c "mdqa_chase_tgd_fires_total");
  count acc "chase.nulls" (c "mdqa_chase_nulls_total");
  count acc "chase.egd_merges" (c "mdqa_chase_egd_merges_total");
  count acc "eval.rows"
    (Option.value ~default:0. (Metrics.find_gauge s "mdqa_guard_rows"))

let store_counts acc m =
  let s = Metrics.snapshot m in
  let c name = float_of_int (Metrics.counter_total s name) in
  count acc "store.journal_bytes" (c "mdqa_store_journal_bytes_total");
  count acc "store.snapshot_bytes" (c "mdqa_store_checkpoint_bytes_total");
  count acc "store.snapshots" (c "mdqa_store_checkpoint_total")

(* Traced operations per run are capped so that their spans fit the
   tracer's ring (see [trace]) however fast the operations get. *)
let max_pairs = 10

(* Run [traced] and [untraced] alternately until [seconds] have passed
   (at least [min_pairs] and at most [max_pairs] of each).  Tracer and
   profiler are installed only around traced operations. *)
let alternate ~tracer ~profile ~seconds ~min_pairs acc ~untraced ~traced =
  let deadline = now () +. seconds in
  let i = ref 0 in
  while !i < min_pairs || (now () < deadline && !i < max_pairs) do
    let t0 = now () in
    if not (untraced !i) then acc.failed <- acc.failed + 1;
    acc.untraced <- (now () -. t0) :: acc.untraced;
    let majors0 = (Gc.quick_stat ()).Gc.major_collections in
    Trace.install tracer;
    Profile.install profile;
    let t0 = now () in
    let ok = traced !i in
    acc.traced <- (now () -. t0) :: acc.traced;
    Trace.uninstall ();
    Profile.uninstall ();
    if not ok then acc.failed <- acc.failed + 1;
    acc.majors <- acc.majors + (Gc.quick_stat ()).Gc.major_collections - majors0;
    incr i
  done

let wrap_hooks (h : D.Chase.checkpoint) : D.Chase.checkpoint =
  let s f = span "store.hook" f in
  { D.Chase.on_start = (fun i -> s (fun () -> h.D.Chase.on_start i));
    on_fact = (fun p t -> s (fun () -> h.D.Chase.on_fact p t));
    on_merge = (fun ~from_ ~into -> s (fun () -> h.D.Chase.on_merge ~from_ ~into));
    on_round =
      (fun ~instance ~frontier st ->
        s (fun () -> h.D.Chase.on_round ~instance ~frontier st));
    on_done =
      (fun ~instance o st -> s (fun () -> h.D.Chase.on_done ~instance o st)) }

let saturated (r : D.Chase.result) = r.D.Chase.outcome = D.Chase.Saturated

(* One [mdqa context FILE] as the CLI runs it, minus printing. *)
let assess_op ~file ~expected ?metrics () =
  span "op" @@ fun () ->
  let text = read_file file in
  match
    span "md_parser.check" (fun () ->
        (Md_parser.check_string ~file text).Md_parser.parsed)
  with
  | None -> false
  | Some { Md_parser.ontology; context; source; queries } ->
    span "md_ontology.static" (fun () ->
        ignore (Md_ontology.referential_violations ontology);
        ignore (Md_ontology.classes ontology);
        ignore (Md_ontology.separability ontology);
        ignore (Md_ontology.is_upward_only ontology));
    let guard = cli_guard () in
    let prepared = span "context.prepare" (fun () -> Ctx.prepare context ~source) in
    let a =
      span "chase.run" (fun () ->
          Ctx.assess_prepared ~guard ?metrics context ~source ~prepared)
    in
    let qv =
      span "context.quality_version" (fun () ->
          Ctx.quality_version a "measurements")
    in
    let table =
      span "table_fmt.render" (fun () ->
          Option.map (R.Table_fmt.render ~title:qv_title) qv)
    in
    ignore
      (span "assessment.report" (fun () -> Mdqa_context.Assessment.report a));
    let blocks =
      span "context.clean_answers" (fun () ->
          List.map
            (fun q ->
              answers_block q.D.Query.name
                (Option.value ~default:[] (Ctx.clean_answers a q)))
            queries)
    in
    Option.iter (D.Guard.record_metrics guard) metrics;
    saturated a.Ctx.chase
    && table = Jsonl.str_field "qv_table" expected
    && List.mem (Jsonl.str_field "answers" expected) (List.map Option.some blocks)

(* One [mdqa chase FILE --checkpoint STORE] as the CLI runs it, minus
   printing; returns the result for the checks. *)
let egd_op ~file ~path ?metrics () =
  span "op" @@ fun () ->
  let text = read_file file in
  let parsed = span "parser.parse" (fun () -> D.Parser.parse_string text) in
  let program = parsed.D.Parser.program in
  let guard = cli_guard () in
  let store =
    Store.create ~guard ~keep_generations:2 ?metrics ~path ~program_text:text
      ~variant:D.Chase.Restricted ()
  in
  let r =
    span "chase.run" (fun () ->
        D.Chase.run ~guard ?metrics
          ~checkpoint:(wrap_hooks (Store.checkpoint store))
          program
          (D.Program.instance_of_facts program))
  in
  span "table_fmt.render" (fun () ->
      List.iter
        (fun rel ->
          if not (R.Relation.is_empty rel) then ignore (R.Table_fmt.render rel))
        (R.Instance.relations r.D.Chase.instance));
  Option.iter (D.Guard.record_metrics guard) metrics;
  (r, Store.write_error store = None)

let read_expected dir =
  match Jsonl.parse (read_file (Filename.concat dir "expected.json")) with
  | Ok j -> j
  | Error e -> die "expected.json: %s" e

let int_field name j =
  match Jsonl.num_field name j with
  | Some f -> int_of_float f
  | None -> die "expected.json has no %s" name

let egd_ok expected (r : D.Chase.result) =
  let st = r.D.Chase.stats in
  saturated r
  && st.D.Chase.nulls_created = int_field "nulls" expected
  && st.D.Chase.egd_merges = int_field "merges" expected
  && R.Instance.total_tuples r.D.Chase.instance = int_field "facts" expected

let json_of_metrics pairs =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %.17g" k v) pairs)
  ^ "}"

let trace workload seed dir seconds out =
  (* the ring is preallocated: 2^18 events hold every span of
     [max_pairs] traced operations without inflating gc.top_heap_mb *)
  let tracer = Trace.create ~capacity:(1 lsl 18) () in
  let profile = Profile.create () in
  let acc = new_acc () in
  let metrics = ref [] in
  let put k v = metrics := (k, v) :: !metrics in
  let requests_by_class = Hashtbl.create 4 in
  let served = ref 0 in
  (match workload with
   | "assess-hospital" ->
     let file = Filename.concat dir "hospital.mdq" in
     let expected = read_expected dir in
     alternate ~tracer ~profile ~seconds ~min_pairs:2 acc
       ~untraced:(fun _ -> assess_op ~file ~expected ())
       ~traced:(fun _ ->
         let m = Metrics.create () in
         let ok = assess_op ~file ~expected ~metrics:m () in
         chase_counts acc m;
         ok)
   | "egd-merge" ->
     let file = Filename.concat dir "merge.dl" in
     let expected = read_expected dir in
     let store_dir = Filename.concat dir "trace-store" in
     let path = Filename.concat store_dir "store" in
     let run ?metrics () =
       fresh_dir store_dir;
       let r, written = egd_op ~file ~path ?metrics () in
       let loaded = span "store.load" (fun () -> Store.load ~path) in
       written && egd_ok expected r
       &&
       match loaded with
       | Ok rc ->
         R.Instance.total_tuples rc.Store.instance
         = R.Instance.total_tuples r.D.Chase.instance
       | Error _ -> false
     in
     alternate ~tracer ~profile ~seconds ~min_pairs:3 acc
       ~untraced:(fun _ -> run ())
       ~traced:(fun _ ->
         let m = Metrics.create () in
         let ok = run ~metrics:m () in
         chase_counts acc m;
         store_counts acc m;
         ok)
   | "serve-hospital" ->
     let store_dir = Filename.concat dir "trace-store" in
     fresh_dir store_dir;
     let m = Metrics.create () in
     Trace.install tracer;
     Profile.install profile;
     let svc =
       span "service.load" (fun () ->
           Service.load ~metrics:m
             ~store:(Filename.concat store_dir "store")
             ~program_file:(Filename.concat dir "hospital.dl") ())
     in
     Trace.uninstall ();
     Profile.uninstall ();
     let svc =
       match svc with Ok s -> s | Error _ -> die "Service.load failed"
     in
     (* the warm chase and first snapshot, once per load *)
     Service.record_metrics svc;
     chase_counts acc m;
     let checkpoints_at_load =
       Metrics.counter_total (Metrics.snapshot m) "mdqa_store_checkpoint_total"
     in
     let requests = read_requests dir in
     let expected = serve_expected dir in
     let next = ref 0 in
     let request ~traced () =
       let line, cls, query = requests.(!next mod Array.length requests) in
       incr next;
       incr served;
       if traced then
         Hashtbl.replace requests_by_class cls
           (1 + Option.value ~default:0 (Hashtbl.find_opt requests_by_class cls));
       let t0 = now () in
       let reply =
         span "op" @@ fun () ->
         match
           span "protocol.parse_request" (fun () -> Protocol.parse_request line)
         with
         | Ok (Protocol.Query { id; query; engine; _ }) ->
           let out =
             span ("service.query." ^ cls) (fun () ->
                 Service.query svc ~engine query)
           in
           let reply =
             span "protocol.reply" (fun () ->
                 match out with
                 | Service.Answers a ->
                   Protocol.complete_reply ?id ~answers:(Some a) ()
                 | _ -> "")
           in
           span "service.request_served" (fun () -> Service.request_served svc);
           reply
         | _ -> ""
       in
       let dt = now () -. t0 in
       let ok =
         match Protocol.parse_reply (String.trim reply) with
         | Ok rep -> reply_ok expected query rep
         | Error _ -> false
       in
       (dt, ok)
     in
     (* blocks of 64 requests, one checkpoint cadence each; at most
        [max_pairs] * 6 traced blocks *)
     let block ~traced =
       let ok = ref true in
       for _ = 1 to 64 do
         let dt, o = request ~traced () in
         if traced then acc.traced <- dt :: acc.traced
         else acc.untraced <- dt :: acc.untraced;
         if not o then acc.failed <- acc.failed + 1;
         ok := !ok && o
       done;
       !ok
     in
     let majors0 = (Gc.quick_stat ()).Gc.major_collections in
     let deadline = now () +. seconds in
     let pairs = ref 0 in
     while (now () < deadline && !pairs < max_pairs * 6) || acc.traced = [] do
       incr pairs;
       ignore (block ~traced:false);
       Trace.install tracer;
       Profile.install profile;
       ignore (block ~traced:true);
       Trace.uninstall ();
       Profile.uninstall ()
     done;
     acc.majors <- (Gc.quick_stat ()).Gc.major_collections - majors0;
     let s = Metrics.snapshot m in
     let checkpoints =
       Metrics.counter_total s "mdqa_store_checkpoint_total" - checkpoints_at_load
     in
     put "store.checkpoints_per_1k"
       (1000. *. float_of_int checkpoints /. float_of_int !served);
     Service.close svc
   | w -> die "unknown workload %s" w);
  let n_ops = List.length acc.traced in
  let per_op x = x /. float_of_int n_ops in
  let events = Trace.events tracer in
  let selfs = self_times events in
  let op_total =
    List.fold_left
      (fun a e -> if e.Trace.name = "op" then a +. e.Trace.dur else a)
      0. events
  in
  let table = Buffer.create 4096 in
  let row fmt = Printf.bprintf table fmt in
  row "per-layer self time, %s seed %d: %d traced operations, mean per operation\n"
    workload seed n_ops;
  let in_op_sum = ref 0. in
  List.iter
    (fun metric ->
      match Hashtbl.find_opt selfs metric with
      | None -> ()
      | Some t when t.roots > 0 && t.in_op = 0. ->
        let v = t.outside /. float_of_int t.roots in
        put metric v;
        row "  %-28s %12.6f s/call  (%d calls, outside the timed op)\n" metric v
          t.roots
      | Some t ->
        in_op_sum := !in_op_sum +. t.in_op;
        let share = 100. *. t.in_op /. op_total in
        if String.starts_with ~prefix:"service.query_s." metric then begin
          let cls = String.sub metric 16 (String.length metric - 16) in
          let k = Option.value ~default:1 (Hashtbl.find_opt requests_by_class cls) in
          put metric (t.in_op /. float_of_int k);
          row "  %-28s %12.6f s/op  %5.1f%% of op time  (%.6f s per %s query, %d queries)\n"
            metric (per_op t.in_op) share (t.in_op /. float_of_int k) cls k
        end
        else begin
          put metric (per_op t.in_op);
          row "  %-28s %12.6f s/op  %5.1f%% of op time\n" metric (per_op t.in_op) share
        end)
    layer_metrics;
  row "  %-28s %12.6f s/op  (sum of the self times above: %.6f s/op)\n"
    "op wall time" (per_op op_total) (per_op !in_op_sum);
  let counts_per_op = workload <> "serve-hospital" in
  Hashtbl.iter
    (fun k v -> put k (if counts_per_op then per_op v else v))
    acc.counts;
  let cnt k =
    let v = Option.value ~default:0. (Hashtbl.find_opt acc.counts k) in
    if counts_per_op then per_op v else v
  in
  let ratio name a b base =
    let v = if b = 0. then 0. else a /. b in
    put name v;
    row "  %-28s %12.4f  (= %.6g / %.6g; base: %s)\n" name v a b base
  in
  ratio "chase.fire_ratio" (cnt "chase.fires") (cnt "chase.triggers")
    "TGD triggers checked";
  let snap = Profile.snapshot profile in
  (match
     List.sort
       (fun (_, a) (_, b) -> compare b.Profile.rule_seconds a.Profile.rule_seconds)
       snap.Profile.rules
   with
   | (rule, st) :: _ ->
     let denom = if counts_per_op then float_of_int n_ops else 1. in
     put "chase.hot_rule_s" (st.Profile.rule_seconds /. denom);
     row "  %-28s %12.6f s  (hottest rule: %s)\n" "chase.hot_rule_s"
       (st.Profile.rule_seconds /. denom) rule;
     let scanned =
       List.fold_left
         (fun a ((r, _, _), (at : Profile.atom_stat)) ->
           if r = rule then a + at.Profile.scanned else a)
         0 snap.Profile.atoms
     in
     ratio "eval.scanned_per_trigger" (float_of_int scanned)
       (float_of_int st.Profile.triggers)
       (Printf.sprintf "triggers of %s" rule);
     Printf.printf "hot rule: %s\n" rule
   | [] -> ());
  let p50_t = median acc.traced and p50_u = median acc.untraced in
  put "trace.op_p50_s" p50_t;
  put "trace.untraced_op_p50_s" p50_u;
  ratio "trace.overhead_ratio" p50_t p50_u
    (Printf.sprintf "untraced in-process op p50 over %d ops" (List.length acc.untraced));
  put "gc.major_collections" (float_of_int acc.majors /. float_of_int n_ops);
  put "gc.top_heap_mb"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
     /. 1048576.);
  put "trace.dropped_spans" (float_of_int (Trace.dropped tracer));
  Trace.export_file tracer (Filename.concat dir "trace.json");
  write_file (Filename.concat dir "layers.txt") (Buffer.contents table);
  print_string (Buffer.contents table);
  write_file out
    (Printf.sprintf
       "{\"seed\": %d, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
       seed
       (List.length acc.traced + List.length acc.untraced)
       acc.failed
       (json_of_metrics (List.rev !metrics)))

let () =
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> die "not an integer: %s" s in
  let float_arg s = match float_of_string_opt s with Some f -> f | None -> die "not a number: %s" s in
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; "assess-hospital"; seed; dir ] -> gen_assess (int_arg seed) dir
  | [ "gen"; "egd-merge"; seed; dir ] -> gen_egd (int_arg seed) dir
  | [ "gen"; "serve-hospital"; seed; dir ] -> gen_serve (int_arg seed) dir
  | [ "ref"; "assess-hospital"; seed; dir ] -> ref_assess (int_arg seed) dir
  | [ "ref"; "egd-merge"; _; dir ] -> ref_egd dir
  | [ "ref"; "serve-hospital"; _; dir ] -> ref_serve dir
  | [ "load"; socket; dir; seconds; slice; cal; out ] ->
    load socket dir (float_arg seconds) (float_arg slice) cal out
  | [ "trace"; workload; seed; dir; seconds; out ] ->
    trace workload (int_arg seed) dir (float_arg seconds) out
  | _ -> die "usage: pb (gen|ref|load|trace) ... (see the header of pb.ml)"
