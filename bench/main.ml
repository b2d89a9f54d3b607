(* CI gates.  Each mode checks one budget and exits 1 when it is missed:

     dune exec bench/main.exe -- overhead          tracer on <= 1.02x off
     dune exec bench/main.exe -- profile-overhead  profiler on <= 1.05x off

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

let () =
  (match Array.to_list Sys.argv |> List.tl with
   | [ "overhead" ] -> tracer_overhead ()
   | [ "profile-overhead" ] -> profiler_overhead ()
   | _ ->
     prerr_endline "usage: main.exe (overhead | profile-overhead)";
     exit 2);
  banner (if !all_pass then "ALL CHECKS PASSED" else "SOME CHECKS FAILED");
  if not !all_pass then exit 1
