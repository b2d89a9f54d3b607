(* CI gates.  Each mode checks one budget and exits 1 when it is missed:

     dune exec bench/main.exe -- overhead          tracer on <= 1.02x off
     dune exec bench/main.exe -- profile-overhead  profiler on <= 1.05x off
     dune exec bench/main.exe -- serve             worker pool >= 2x inline
                                                   throughput (>= 4 cores)

   Timings of the end-to-end workloads come from perfbench/run.py; the
   paper's tables, figures and claims are checked by [dune runtest]. *)

module Hospital = Mdqa_hospital.Hospital
module Md_ontology = Mdqa_multidim.Md_ontology
module Context = Mdqa_context.Context
module Trace = Mdqa_obs.Trace
module Profile = Mdqa_obs.Profile
open Mdqa_datalog

let banner title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n  %s\n%s\n\n" line title line

let all_pass = ref true

let verify label ok =
  Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") label;
  if not ok then all_pass := false

(* Wall-clock time on the monotonic clock the Guard uses: [Sys.time]
   measures CPU time and under-reports anything that blocks. *)
let time_once f =
  let t0 = Guard.Clock.now () in
  f ();
  Guard.Clock.now () -. t0

(* Instrumentation overhead: [run] with the instrument installed must
   stay within [budget] times the same run without it.  Min-of-N
   interleaved samples cancel GC and thermal drift; the sample count
   escalates over up to four attempts, because a noisy machine needs
   more draws before the min converges to the true floor. *)
let overhead_gate ~name ~budget ~install ~uninstall run =
  banner (Printf.sprintf "Overhead - %s on vs off (budget: <= %.2fx)" name budget);
  let sample_on () =
    install ();
    Fun.protect ~finally:uninstall (fun () -> time_once run)
  in
  let attempt k =
    let n = 5 * k in
    let min_off = ref infinity and min_on = ref infinity in
    for _ = 1 to n do
      min_off := Float.min !min_off (time_once run);
      min_on := Float.min !min_on (sample_on ())
    done;
    let ratio = !min_on /. !min_off in
    Printf.printf "attempt %d: off %.4fs  on %.4fs  ratio %.4f (%d samples)\n"
      k !min_off !min_on ratio n;
    ratio <= budget
  in
  let rec attempts k = k <= 4 && (attempt k || attempts (k + 1)) in
  verify (Printf.sprintf "%s overhead within %.2fx" name budget) (attempts 1)

(* The tracer gate times the chase of the 160-patient ontology with
   every round and rule span recorded.  It is stronger than the promise
   it backs ("instrumented but off costs nothing"): if full tracing fits
   the budget, the off mode (one ref read per span) certainly does. *)
let tracer_overhead () =
  let m = Hospital.Gen.ontology (Hospital.Gen.scale 160) in
  let p = Md_ontology.program m and i = Md_ontology.instance m in
  let tracer = Trace.create () in
  overhead_gate ~name:"tracer" ~budget:1.02
    ~install:(fun () -> Trace.install tracer)
    ~uninstall:(fun () ->
      Trace.uninstall ();
      Trace.clear tracer)
    (fun () -> ignore (Chase.run p i))

(* The profiler gate times the 160-patient assessment.  Its budget is
   wider because the profiler does real work per body atom visit. *)
let profiler_overhead () =
  let g = Hospital.Gen.scale 160 in
  let ctx = Hospital.Gen.context g and src = Hospital.Gen.source g in
  let profiler = Profile.create () in
  overhead_gate ~name:"profiler" ~budget:1.05
    ~install:(fun () -> Profile.install profiler)
    ~uninstall:(fun () ->
      Profile.uninstall ();
      Profile.clear profiler)
    (fun () -> ignore (Context.assess ctx ~source:src))

(* Serve: concurrent-client throughput against a warm forked server,
   inline vs a 4-worker pool, plus a drain check.  The server child
   runs the real event loop over a Unix socket; forked clients are the
   real retrying client, since one sequential client can never expose
   pool parallelism. *)

let n_clients = 8
let per_client = 100
let n_requests = n_clients * per_client

let request =
  {|{"kind":"query","query":"q(X, Z) :- linked(X, Z)","engine":"chase"}|}

let remove_all paths =
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths

(* One client process: [per_client] round trips, one "latency ok" line
   each. *)
let client_loop ~sock lat_file =
  let module Client = Mdqa_server.Client in
  let oc = open_out lat_file in
  let client = Client.create ~addr:sock () in
  for _ = 1 to per_client do
    let s = Unix.gettimeofday () in
    let ok =
      match Client.roundtrip client request with
      | Ok r when r.Mdqa_server.Protocol.status = "complete" -> 1
      | Ok _ | Error _ -> 0
    in
    Printf.fprintf oc "%.9f %d\n" (Unix.gettimeofday () -. s) ok
  done;
  Client.close client;
  close_out oc

let read_latencies lat_files =
  let lats = ref [] and complete = ref 0 in
  List.iter
    (fun lat_file ->
      In_channel.with_open_text lat_file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.iter (fun line ->
             try
               Scanf.sscanf line "%f %d" (fun l ok ->
                   lats := l :: !lats;
                   complete := !complete + ok)
             with Scanf.Scan_failure _ | End_of_file -> ()))
    lat_files;
  let lats = Array.of_list !lats in
  Array.sort compare lats;
  (lats, !complete)

(* Returns the configuration's throughput in requests per second. *)
let run_config ~program_file ~workers =
  let module Server = Mdqa_server.Server in
  let module Client = Mdqa_server.Client in
  let label = Printf.sprintf "workers=%d" workers in
  let sock = Filename.temp_file "mdqa_serve_bench" ".sock" in
  Sys.remove sock;
  let lat_files =
    List.init n_clients (fun i ->
        Filename.temp_file (Printf.sprintf "mdqa_serve_lat%d" i) ".txt")
  in
  Fun.protect ~finally:(fun () -> remove_all (sock :: lat_files)) @@ fun () ->
  (* children must not flush inherited copies of our stdout buffer *)
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Stdlib.exit
      (match Mdqa_server.Service.load ~program_file () with
       | Error _ -> 1
       | Ok svc ->
         Server.run
           { (Server.default_config (Server.Unix_path sock)) with
             Server.workers;
             watchdog = Some 30. }
           svc)
  | server_pid ->
    let probe = Client.create ~addr:sock () in
    let up = Client.ping probe in
    Client.close probe;
    (match up with
     | Error e ->
       verify (Printf.sprintf "serve (%s) came up: %s" label e) false;
       Unix.kill server_pid Sys.sigkill;
       ignore (Unix.waitpid [] server_pid);
       0.
     | Ok _ ->
       let t0 = Unix.gettimeofday () in
       let client_pids =
         List.map
           (fun lat_file ->
             flush_all ();
             match Unix.fork () with
             | 0 ->
               client_loop ~sock lat_file;
               Unix._exit 0
             | pid -> pid)
           lat_files
       in
       List.iter (fun pid -> ignore (Unix.waitpid [] pid)) client_pids;
       let wall = Unix.gettimeofday () -. t0 in
       let lats, complete = read_latencies lat_files in
       let n = Array.length lats in
       let pct p =
         if n = 0 then 0.
         else
           lats.(min (n - 1) (int_of_float (ceil (p *. float_of_int n /. 100.)) - 1))
       in
       let throughput = float_of_int n_requests /. wall in
       Printf.printf
         "%-12s %4d reqs x %d clients: p50 %.5fs  p95 %.5fs  p99 %.5fs  \
          %6.0f req/s  (%d complete)\n"
         label n_requests n_clients (pct 50.) (pct 95.) (pct 99.) throughput
         complete;
       verify
         (Printf.sprintf "every serve-bench request answered complete (%s)" label)
         (complete = n_requests);
       Unix.kill server_pid Sys.sigterm;
       let _, wstatus = Unix.waitpid [] server_pid in
       verify
         (Printf.sprintf "serve (%s) drains to exit 0 on SIGTERM" label)
         (wstatus = Unix.WEXITED 0);
       throughput)

let serve () =
  banner "Serve - concurrent-client throughput, inline vs worker pool";
  let program_file = Filename.temp_file "mdqa_serve_bench" ".dl" in
  Fun.protect ~finally:(fun () -> remove_all [ program_file ]) @@ fun () ->
  Out_channel.with_open_text program_file (fun oc ->
      for i = 1 to 400 do
        Printf.fprintf oc "edge(n%d, n%d).\n" i (i + 1)
      done;
      output_string oc "linked(X, Y) :- edge(X, Y).\n";
      output_string oc "linked(X, Z) :- edge(X, Y), edge(Y, Z).\n");
  let tp_0 = run_config ~program_file ~workers:0 in
  let tp_4 = run_config ~program_file ~workers:4 in
  let speedup = if tp_0 > 0. then tp_4 /. tp_0 else 0. in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "\npool speedup: %.2fx on %d cores\n" speedup cores;
  if cores >= 4 then
    verify "worker pool at least doubles concurrent throughput" (speedup >= 2.0)
  else
    Printf.printf "(speedup target not enforced: only %d cores available)\n"
      cores

let () =
  (match Array.to_list Sys.argv |> List.tl with
   | [ "overhead" ] -> tracer_overhead ()
   | [ "profile-overhead" ] -> profiler_overhead ()
   | [ "serve" ] -> serve ()
   | _ ->
     prerr_endline "usage: main.exe (overhead | profile-overhead | serve)";
     exit 2);
  banner (if !all_pass then "ALL CHECKS PASSED" else "SOME CHECKS FAILED");
  if not !all_pass then exit 1
