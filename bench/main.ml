(* Benchmark and reproduction harness.

   The paper is an extended abstract whose "evaluation" is its running
   example: Tables I–V and Figures 1–2, plus the formal claims of
   §III–IV.  This harness regenerates every one of them mechanically
   (experiment ids T1–T5, F1, F2, E5, E7, C1, C2 of DESIGN.md) and adds
   the performance experiments C3/C4 and the engineering ablations
   backing EXPERIMENTS.md.

   Usage:
     dune exec bench/main.exe              reports + scaling + bechamel
     dune exec bench/main.exe -- report    paper reproduction only
     dune exec bench/main.exe -- scaling   scaling experiments only
     dune exec bench/main.exe -- store     checkpoint overhead (BENCH_store.json)
     dune exec bench/main.exe -- micro     bechamel micro-benchmarks only *)

module Hospital = Mdqa_hospital.Hospital
module Md_ontology = Mdqa_multidim.Md_ontology
module Context = Mdqa_context.Context
module Assessment = Mdqa_context.Assessment
module R = Mdqa_relational
module Metrics = Mdqa_obs.Metrics
module Trace = Mdqa_obs.Trace
open Mdqa_datalog

let emit_metrics = Array.exists (fun a -> a = "--emit-metrics") Sys.argv
let profile_runs = Array.exists (fun a -> a = "--profile") Sys.argv

module Profile = Mdqa_obs.Profile

let v = Term.var
let c s = Term.Const (R.Value.sym s)

let banner title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n  %s\n%s\n\n" line title line

let check label ok =
  Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") label;
  ok

let all_pass = ref true
let verify label ok = if not (check label ok) then all_pass := false

(* ------------------------------------------------------------------ *)
(* Paper reproduction reports *)

let report_t1 () =
  banner "T1 - Table I: Measurements (input)";
  R.Table_fmt.print ~title:"measurements" Hospital.measurements

let report_t2 () =
  banner "T2 - Table II: Measurements^q (computed by the quality context)";
  let a = Context.assess (Hospital.context ()) ~source:(Hospital.source ()) in
  match Context.quality_version a "measurements" with
  | None -> verify "quality version computed" false
  | Some q ->
    R.Table_fmt.print ~title:"measurements_q (computed)" q;
    print_newline ();
    verify "equals the paper's Table II"
      (R.Tuple.Set.equal (R.Relation.to_set q)
         (R.Relation.to_set Hospital.expected_measurements_q))

let report_t3 () =
  banner "T3 - Table III: WorkingSchedules (input)";
  R.Table_fmt.print ~title:"working_schedules" Hospital.working_schedules

let report_t4 () =
  banner "T4 - Table IV: Shifts (input + rule (8) downward completion)";
  R.Table_fmt.print ~title:"shifts (extensional)" Hospital.shifts;
  print_newline ();
  let m = Hospital.ontology () in
  let r = Md_ontology.chase m in
  R.Table_fmt.print ~title:"shifts after the chase"
    (R.Instance.get r.Chase.instance "shifts");
  print_newline ();
  let mark_w1_w2 =
    List.for_all
      (fun w ->
        R.Relation.probe
          (R.Instance.get r.Chase.instance "shifts")
          [ (0, R.Value.sym w); (1, R.Value.sym "Sep/9");
            (2, R.Value.sym "Mark") ]
        <> [])
      [ "W1"; "W2" ]
  in
  verify "Mark has generated shifts in W1 and W2 on Sep/9 (Example 2)"
    mark_w1_w2

let report_t5 () =
  banner "T5 - Table V: DischargePatients (input + rule (9), form (10))";
  R.Table_fmt.print ~title:"discharge_patients" Hospital.discharge_patients;
  print_newline ();
  let m = Hospital.ontology () in
  let r = Md_ontology.chase m in
  R.Table_fmt.print
    ~title:"patient_unit after the chase (null = unknown unit)"
    (R.Instance.get r.Chase.instance "patient_unit");
  print_newline ();
  let elvis =
    R.Relation.probe
      (R.Instance.get r.Chase.instance "patient_unit")
      [ (2, R.Value.sym "Elvis Costello") ]
  in
  verify "Elvis Costello placed in a fresh null unit (Example 6)"
    (match elvis with
     | [ t ] -> R.Value.is_null (R.Tuple.get t 0)
     | _ -> false)

let report_f1 () =
  banner "F1 - Figure 1: the extended multidimensional model";
  Format.printf "%a@." Mdqa_multidim.Md_schema.pp Hospital.md_schema;
  print_newline ();
  verify "Hospital dimension instance is strict and homogeneous"
    (Mdqa_multidim.Dim_instance.is_strict Hospital.hospital_instance
    && Mdqa_multidim.Dim_instance.is_homogeneous Hospital.hospital_instance);
  verify "Time dimension instance is strict and homogeneous"
    (Mdqa_multidim.Dim_instance.is_strict Hospital.time_instance
    && Mdqa_multidim.Dim_instance.is_homogeneous Hospital.time_instance);
  let m = Hospital.ontology () in
  verify "no referential-constraint (1) violations"
    (Md_ontology.referential_violations m = []);
  (* regenerate Figure 1 as a Graphviz file *)
  let dot = Mdqa_multidim.Md_schema.to_dot Hospital.md_schema in
  let path = "figure1.dot" in
  let oc = open_out path in
  output_string oc dot;
  close_out oc;
  Printf.printf "\nFigure 1 written to %s (render with: dot -Tpng %s)\n" path
    path;
  verify "figure1.dot generated"
    (String.length dot > 100
    && String.length dot < 100_000
    && String.sub dot 0 7 = "digraph")

let report_f2 () =
  banner "F2 - Figure 2: the MD context pipeline D -> C(+M) -> S^q -> Q^q";
  let ctx = Hospital.context () in
  Printf.printf "mappings (D into C):\n";
  List.iter (fun mp -> Format.printf "  %a@." Context.pp_mapping mp)
    ctx.Context.mappings;
  Printf.printf "\ncontextual rules (quality predicates and S^q):\n";
  List.iter (fun t -> Format.printf "  %a@." Tgd.pp t) ctx.Context.rules;
  let a = Context.assess ctx ~source:(Hospital.source ()) in
  Format.printf "\nchase: %a (%d firings, %d nulls)@." Chase.pp_outcome
    a.Context.chase.Chase.outcome a.Context.chase.Chase.stats.Chase.tgd_fires
    a.Context.chase.Chase.stats.Chase.nulls_created;
  Format.printf "\nquality report: %a@." Assessment.pp_report
    (Assessment.report a);
  Format.printf "\ndoctor's query: %a@." Query.pp Hospital.doctor_query;
  (match Context.clean_answers a Hospital.doctor_query with
   | Some answers ->
     List.iter
       (fun t -> Format.printf "  quality answer: %a@." R.Tuple.pp t)
       answers;
     verify "quality answer is exactly row 1 of Table I"
       (answers
       = [ R.Tuple.of_list
             [ R.Value.sym "Sep/5-12:10"; R.Value.sym "Tom Waits";
               R.Value.real 38.2 ] ])
   | None -> verify "clean answers computed" false)

let report_e5 () =
  banner "E5 - Example 5: Q'(d) <- Shifts(W1, d, Mark, s)";
  let m = Hospital.ontology () in
  let expected = [ R.Tuple.of_list [ R.Value.sym "Sep/9" ] ] in
  (match Md_ontology.certain_answers m Hospital.example5_query with
   | Query.Ok answers ->
     Format.printf "via chase: %a@." (Format.pp_print_list R.Tuple.pp) answers;
     verify "chase answer = {Sep/9}" (answers = expected)
   | _ -> verify "chase succeeded" false);
  let p = Md_ontology.proof_answers m Hospital.example5_query in
  Format.printf "via DeterministicWSQAns (%d steps): %a@." p.Proof.steps
    (Format.pp_print_list R.Tuple.pp)
    p.Proof.answers;
  verify "proof answer = {Sep/9}"
    (p.Proof.answers = expected && p.Proof.complete)

let report_e7 () =
  banner "E7 - Example 7: Q -> Q^q rewriting and upward navigation";
  let ctx = Hospital.context () in
  let q' = Context.rewrite_query ctx Hospital.doctor_query in
  Format.printf "Q : %a@." Query.pp Hospital.doctor_query;
  Format.printf "Q^q: %a@." Query.pp q';
  verify "Q^q targets measurements_q"
    (List.map Atom.pred q'.Query.body = [ "measurements_q" ]);
  (* the upward-only methodology of §IV on the PatientUnit fragment *)
  let up = Hospital.upward_ontology () in
  verify "upward-only fragment detected syntactically"
    (Md_ontology.is_upward_only up);
  let q =
    Query.make ~name:"tom_units" ~head:[ v "U"; v "D" ]
      [ Atom.make "patient_unit" [ v "U"; v "D"; c "Tom Waits" ] ]
  in
  match (Md_ontology.rewrite_answers up q, Md_ontology.certain_answers up q)
  with
  | Guard.Complete a, Query.Ok b ->
    Format.printf "FO-rewriting answers: %a@."
      (Format.pp_print_list R.Tuple.pp)
      a;
    verify "FO rewriting = chase on the upward fragment" (a = b)
  | _ -> verify "both engines answered" false

let report_c1 () =
  banner "C1 - Sec. III claim: the MD ontology is weakly-sticky Datalog+-";
  let m = Hospital.ontology () in
  Format.printf "%a@.@." Classes.pp_report (Md_ontology.classes m);
  let r = Md_ontology.classes m in
  verify "weakly sticky" r.Classes.weakly_sticky;
  verify "not sticky (join rules repeat marked variables)"
    (not r.Classes.sticky);
  List.iter
    (fun info -> Format.printf "  %a@." Mdqa_multidim.Dim_rule.pp_info info)
    m.Md_ontology.rule_infos

let report_c2 () =
  banner "C2 - Sec. III claim: EGD (6) is separable";
  let m = Hospital.ontology () in
  Format.printf "EGD: %a@." Egd.pp Hospital.egd_thermometer;
  let verdict = Md_ontology.separability m in
  Format.printf "categorical-positions criterion: %a@."
    Separability.pp_verdict verdict;
  verify "separable (equated variables at categorical positions only)"
    verdict.Separability.separable

let report_r1 () =
  banner
    "R1 - Example 1: the intensive-care tuple 'should be discarded' \
     (subset repair)";
  let module Repair = Mdqa_context.Repair in
  let ctx = Hospital.context ~raw_patient_ward:true () in
  (* without repair, the context is inconsistent *)
  let a0 = Context.assess ctx ~source:(Hospital.source ()) in
  (match a0.Context.chase.Chase.outcome with
   | Chase.Failed _ ->
     Format.printf "raw data: %a@." Chase.pp_outcome
       a0.Context.chase.Chase.outcome
   | _ -> ());
  verify "raw PatientWard makes the context inconsistent"
    (match a0.Context.chase.Chase.outcome with
     | Chase.Failed (Chase.Nc_violation _) -> true
     | _ -> false);
  match Repair.assess_repaired ctx ~source:(Hospital.source ()) with
  | Error e -> verify ("repair: " ^ e) false
  | Ok (a, removed) ->
    Printf.printf "discarded:\n";
    List.iter (fun d -> Format.printf "  %a@." Repair.pp_deletion d) removed;
    verify "exactly the paper's third tuple is discarded"
      (match removed with
       | [ d ] ->
         d.Repair.relation = "patient_ward"
         && R.Tuple.equal d.Repair.tuple
              (R.Tuple.of_list
                 [ R.Value.sym "W3"; R.Value.sym "Sep/7"; R.Value.sym "Tom Waits" ])
       | _ -> false);
    verify "assessment then recovers Table II"
      (match Context.quality_version a "measurements" with
       | Some q ->
         R.Tuple.Set.equal (R.Relation.to_set q)
           (R.Relation.to_set Hospital.expected_measurements_q)
       | None -> false);
    (match
       Repair.cautious_answers ctx ~source:(Hospital.source ())
         Hospital.doctor_query
     with
     | Ok (Guard.Complete answers) ->
       verify "cautious answers under all repairs = row 1"
         (answers
         = [ R.Tuple.of_list
               [ R.Value.sym "Sep/5-12:10"; R.Value.sym "Tom Waits";
                 R.Value.real 38.2 ] ])
     | Ok (Guard.Degraded _) ->
       verify "cautious answers complete (no budget trip)" false
     | Error e -> verify ("cautious answers: " ^ e) false)

let report_x1 () =
  banner "X1 - Explainability: why is row 1 up to quality?";
  let a =
    Context.assess ~provenance:true (Hospital.context ())
      ~source:(Hospital.source ())
  in
  let row1 =
    R.Tuple.of_list
      [ R.Value.sym "Sep/5-12:10"; R.Value.sym "Tom Waits"; R.Value.real 38.2 ]
  in
  match Context.explain a "measurements" row1 with
  | Ok tree ->
    Format.printf "%a@." Explain.pp tree;
    verify "derivation uses upward navigation (rule 7)"
      (List.mem "rule7_patient_unit" (Explain.rules_used tree));
    verify "derivation bottoms out in the recorded data"
      (List.exists
         (fun (p, _) -> p = "patient_ward")
         (Explain.extensional_support tree))
  | Error e -> verify ("explain: " ^ e) false

let reports () =
  report_t1 ();
  report_t2 ();
  report_t3 ();
  report_t4 ();
  report_t5 ();
  report_f1 ();
  report_f2 ();
  report_e5 ();
  report_e7 ();
  report_c1 ();
  report_c2 ();
  report_r1 ();
  report_x1 ()

(* ------------------------------------------------------------------ *)
(* Scaling experiments (C3, C4) and ablations *)

(* Wall-clock timing on the same monotonic clock the Guard uses —
   [Sys.time] measures CPU time and under-reports anything that blocks,
   and the raw system clock can step backwards mid-run. *)
let time_once f =
  let t0 = Guard.Clock.now () in
  let x = f () in
  (x, Guard.Clock.now () -. t0)

let median_time ?(runs = 3) f =
  let ts = List.init runs (fun _ -> snd (time_once f)) in
  List.nth (List.sort compare ts) (runs / 2)

let scaling_sizes = [ 20; 40; 80; 160; 320 ]

(* One checkpointed chase of the ontology, through a throwaway store;
   returns the guard's checkpoint-byte count and the wall time. *)
let checkpointed_chase ?(program_text = "% bench workload (not resumable)")
    m =
  let module Store = Mdqa_store.Store in
  let path = Filename.temp_file "mdqa_bench" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".journal"; path ^ ".tmp" ])
    (fun () ->
      let guard = Guard.unlimited () in
      let store =
        Store.create ~guard ~path ~program_text ~variant:Chase.Restricted ()
      in
      let _, t =
        time_once (fun () ->
            Chase.run ~guard
              ~checkpoint:(Store.checkpoint store)
              (Md_ontology.program m) (Md_ontology.instance m))
      in
      let snapshot_bytes =
        if Sys.file_exists path then
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> in_channel_length ic)
        else 0
      in
      ((Guard.consumption guard).Guard.checkpoint_bytes, snapshot_bytes, t))

let report_c3 () =
  banner "C3 - Sec. IV claim: chase + query answering scale polynomially";
  Printf.printf "%8s %10s %10s %12s %12s %10s %9s %8s %10s %10s\n" "patients"
    "pw-tuples" "facts-out" "chase(s)" "assess(s)" "slope" "g-steps" "g-nulls"
    "g-rows" "g-ckpt-B";
  let prev = ref None in
  let json_rows = ref [] in
  List.iter
    (fun n ->
      let g = Hospital.Gen.scale n in
      let m = Hospital.Gen.ontology g in
      let pw_tuples =
        R.Relation.cardinal (R.Instance.get m.Md_ontology.data "patient_ward")
      in
      let chase_t = median_time (fun () -> Md_ontology.chase m) in
      let facts_out =
        let r = Md_ontology.chase m in
        R.Instance.total_tuples r.Chase.instance
      in
      let ctx = Hospital.Gen.context g in
      let src = Hospital.Gen.source g in
      let assess_t = median_time (fun () -> Context.assess ctx ~source:src) in
      (* per-run resource consumption of one assessment, read back from
         the metrics registry the run records into: the same numbers
         every other consumer (exposition, Chase.stats) sees *)
      let guard = Guard.unlimited () in
      let metrics = Metrics.create () in
      (* with --profile, the same instrumented run also feeds the
         cost-attribution profiler, so each size's row carries a
         per-rule time breakdown next to its guard consumption *)
      let prof_snap =
        if not profile_runs then None
        else begin
          let p = Profile.create () in
          Profile.install p;
          Fun.protect ~finally:Profile.uninstall (fun () ->
              ignore (Context.assess ~guard ~metrics ctx ~source:src));
          Some (Profile.snapshot p)
        end
      in
      if prof_snap = None then
        ignore (Context.assess ~guard ~metrics ctx ~source:src);
      Guard.record_metrics guard metrics;
      let snap = Metrics.snapshot metrics in
      let gauge name =
        match Metrics.find_gauge snap name with
        | Some v -> int_of_float v
        | None -> 0
      in
      (* checkpoint I/O the durable variant of this size's chase writes *)
      let ckpt_bytes, _, _ = checkpointed_chase m in
      let slope =
        match !prev with
        | Some (s0, t0) when t0 > 0. && chase_t > 0. ->
          Printf.sprintf "%.2f"
            (log (chase_t /. t0)
            /. log (float_of_int pw_tuples /. float_of_int s0))
        | _ -> "-"
      in
      prev := Some (pw_tuples, chase_t);
      Printf.printf "%8d %10d %10d %12.4f %12.4f %10s %9d %8d %10d %10d\n" n
        pw_tuples facts_out chase_t assess_t slope
        (gauge "mdqa_guard_steps")
        (gauge "mdqa_guard_nulls")
        (gauge "mdqa_guard_rows") ckpt_bytes;
      (match prof_snap with
       | None -> ()
       | Some ps ->
         let hottest =
           List.sort
             (fun (_, (a : Profile.rule_stat)) (_, b) ->
               compare (b.Profile.rule_seconds, b.Profile.triggers)
                 (a.Profile.rule_seconds, a.Profile.triggers))
             ps.Profile.rules
         in
         List.iteri
           (fun i (name, (r : Profile.rule_stat)) ->
             if i < 3 then
               Printf.printf
                 "         hot rule #%d: %-28s %.4fs (fires=%d triggers=%d)\n"
                 (i + 1) name r.Profile.rule_seconds r.Profile.fires
                 r.Profile.triggers)
           hottest);
      if emit_metrics || prof_snap <> None then
        let profile_field =
          match prof_snap with
          | None -> ""
          | Some ps -> Printf.sprintf ", \"profile\": %s" (Profile.to_json ps)
        in
        json_rows :=
          Printf.sprintf
            "    {\"patients\": %d, \"chase_s\": %.6f, \"assess_s\": %.6f, \
             \"metrics\": %s%s}"
            n chase_t assess_t (Metrics.to_json snap) profile_field
          :: !json_rows)
    scaling_sizes;
  Printf.printf
    "\n(g-* columns: guard consumption of one assessment run, read from\n\
    \ the metrics registry [mdqa_guard_*] - chase steps, invented nulls,\n\
    \ join rows emitted by evaluation; g-ckpt-B is the checkpoint I/O a\n\
    \ durable chase of the same ontology writes)\n";
  Printf.printf
    "\n(slope = chase-time growth exponent vs input tuples between\n\
    \ consecutive sizes; polynomial data complexity shows as a small\n\
    \ bounded exponent)\n";
  if !json_rows <> [] then begin
    let json =
      Printf.sprintf
        "{\n  \"experiment\": \"c3\",\n  \"description\": \"chase + \
         assessment scaling, metrics-registry snapshots per size\",\n  \
         \"rows\": [\n%s\n  ]\n}\n"
        (String.concat ",\n" (List.rev !json_rows))
    in
    let oc = open_out "BENCH_c3.json" in
    output_string oc json;
    close_out oc;
    Printf.printf "\nBENCH_c3.json written\n"
  end

let report_c4 () =
  banner
    "C4 - Sec. IV claim: FO rewriting beats the chase on upward-only \
     ontologies";
  Printf.printf "%8s %14s %14s %14s %10s %10s %10s %12s\n" "patients"
    "rewrite(s)" "chase(s)" "proof(s)" "ch-facts" "ch-fires" "agree" "status";
  List.iter
    (fun n ->
      let g = Hospital.Gen.scale n in
      let hosp_inst, time_inst = Hospital.Gen.dim_instances g in
      let up =
        Md_ontology.make ~schema:Hospital.md_schema
          ~dim_instances:[ hosp_inst; time_inst; Hospital.device_instance ]
          ~data:(Hospital.Gen.data g)
          ~rules:[ Hospital.rule7 ] ()
      in
      let q =
        Query.make ~name:"p1_units" ~head:[ v "U"; v "D" ]
          [ Atom.make "patient_unit"
              [ v "U"; v "D"; c (Hospital.Gen.patient_name 1) ] ]
      in
      let rw = ref [] and ch = ref [] and pf = ref [] in
      let status = ref "ok" in
      let t_rw =
        median_time (fun () ->
            rw := Guard.value (Md_ontology.rewrite_answers up q))
      in
      (* a chase that degrades or fails is a row outcome, not an abort:
         the remaining sizes still run and the table says what happened *)
      let t_ch =
        median_time (fun () ->
            match Md_ontology.certain_answers up q with
            | Query.Ok l -> ch := l
            | Query.Degraded { partial; _ } ->
              ch := partial;
              status := "degraded"
            | Query.Inconsistent _ ->
              ch := [];
              status := "inconsistent")
      in
      let t_pf =
        median_time (fun () ->
            pf := (Md_ontology.proof_answers up q).Proof.answers)
      in
      (* what the chase arm materialized, read from a registry-recorded
         run of the same upward program *)
      let metrics = Metrics.create () in
      ignore
        (Chase.run ~metrics (Md_ontology.program up) (Md_ontology.instance up));
      let snap = Metrics.snapshot metrics in
      Printf.printf "%8d %14.5f %14.5f %14.5f %10d %10d %10b %12s\n" n t_rw
        t_ch t_pf
        (Metrics.counter_total snap "mdqa_chase_facts_total")
        (Metrics.counter_total snap "mdqa_chase_tgd_fires_total")
        (!rw = !ch && !ch = !pf)
        !status)
    scaling_sizes;
  Printf.printf
    "\n(rewriting evaluates a UCQ on the extensional data only; the chase\n\
    \ materializes every derivable fact first - the gap grows with size)\n"

let report_ablation_chase () =
  banner "Ablation - restricted vs oblivious chase, semi-naive vs naive";
  let g = Hospital.Gen.scale 80 in
  let m = Hospital.Gen.ontology g in
  let restricted = Md_ontology.chase ~variant:Chase.Restricted m in
  let oblivious = Md_ontology.chase ~variant:Chase.Oblivious m in
  Printf.printf "restricted chase: %6d nulls, %7d facts\n"
    restricted.Chase.stats.Chase.nulls_created
    (R.Instance.total_tuples restricted.Chase.instance);
  Printf.printf "oblivious chase:  %6d nulls, %7d facts\n"
    oblivious.Chase.stats.Chase.nulls_created
    (R.Instance.total_tuples oblivious.Chase.instance);
  verify "restricted chase invents no more nulls than the oblivious one"
    (restricted.Chase.stats.Chase.nulls_created
    <= oblivious.Chase.stats.Chase.nulls_created);
  let t_semi = median_time (fun () -> Md_ontology.chase m) in
  let p = Md_ontology.program m in
  let i = Md_ontology.instance m in
  let t_naive = median_time (fun () -> Chase.run ~semi_naive:false p i) in
  Printf.printf "semi-naive: %.4fs   naive: %.4fs\n" t_semi t_naive

let report_ablation_pruning () =
  banner "Ablation - UCQ containment pruning in the rewriter";
  let g = Hospital.Gen.scale 80 in
  let hosp_inst, time_inst = Hospital.Gen.dim_instances g in
  let up =
    Md_ontology.make ~schema:Hospital.md_schema
      ~dim_instances:[ hosp_inst; time_inst; Hospital.device_instance ]
      ~data:(Hospital.Gen.data g)
      ~rules:[ Hospital.rule7 ] ()
  in
  let q =
    Query.make ~name:"p1_units" ~head:[ v "U"; v "D" ]
      [ Atom.make "patient_unit"
          [ v "U"; v "D"; c (Hospital.Gen.patient_name 1) ] ]
  in
  let p = Md_ontology.program up in
  (match Rewrite.rewrite ~prune:false p q, Rewrite.rewrite ~prune:true p q with
   | Guard.Complete r0, Guard.Complete r1 ->
     Printf.printf "disjuncts without pruning: %d, with pruning: %d (%d pruned)\n"
       (List.length r0.Rewrite.ucq) (List.length r1.Rewrite.ucq)
       r1.Rewrite.pruned
   | _ -> print_endline "rewriting hit its budget");
  let t0 =
    median_time (fun () -> Rewrite.answers ~prune:false p (Md_ontology.instance up) q)
  in
  let t1 =
    median_time (fun () -> Rewrite.answers ~prune:true p (Md_ontology.instance up) q)
  in
  Printf.printf "evaluation: unpruned %.5fs, pruned %.5fs\n" t0 t1

let report_ablation_goal_directed () =
  banner "Ablation - goal-directed chase (rule relevance restriction)";
  let g = Hospital.Gen.scale 80 in
  let m = Hospital.Gen.ontology g in
  let p = Md_ontology.program m in
  let i = Md_ontology.instance m in
  (* a query over patient_unit does not need rule (8)'s shifts *)
  let q =
    Query.make ~name:"p1_units" ~head:[ v "U" ]
      [ Atom.make "patient_unit"
          [ v "U"; v "D"; c (Hospital.Gen.patient_name 1) ] ]
  in
  let restricted = Program.restrict_to_goals p ~goals:[ "patient_unit" ] in
  Printf.printf "rules: %d total, %d relevant to the query\n"
    (List.length p.Program.tgds)
    (List.length restricted.Program.tgds);
  let t_full =
    median_time (fun () -> Query.certain_answers p i q)
  in
  let t_goal =
    median_time (fun () -> Query.certain_answers ~goal_directed:true p i q)
  in
  Printf.printf "full chase: %.4fs   goal-directed: %.4fs\n" t_full t_goal;
  (match
     (Query.certain_answers p i q, Query.certain_answers ~goal_directed:true p i q)
   with
   | Query.Ok a, Query.Ok b ->
     verify "goal-directed answers unchanged" (a = b)
   | _ -> verify "both chases saturated" false)

let report_ablation_core () =
  banner "Ablation - core of the chase result";
  let m = Hospital.ontology () in
  let restricted = Md_ontology.chase ~variant:Chase.Restricted m in
  let oblivious = Md_ontology.chase ~variant:Chase.Oblivious m in
  let core = Core_inst.compute oblivious.Chase.instance in
  Printf.printf
    "hospital chase:   restricted %d facts / %d nulls,   oblivious %d facts \
     / %d nulls,   core(oblivious) %d facts / %d nulls\n"
    (R.Instance.total_tuples restricted.Chase.instance)
    (Core_inst.null_count restricted.Chase.instance)
    (R.Instance.total_tuples oblivious.Chase.instance)
    (Core_inst.null_count oblivious.Chase.instance)
    (R.Instance.total_tuples core)
    (Core_inst.null_count core);
  verify "core is hom-equivalent to the restricted result"
    (Core_inst.hom_equivalent core restricted.Chase.instance)

let report_ablation_egd_overhead () =
  banner "Ablation - EGD enforcement overhead at scale";
  Printf.printf "%8s %14s %14s\n" "patients" "no-EGD(s)" "with-EGD(s)";
  List.iter
    (fun n ->
      let g = Hospital.Gen.scale n in
      let m = Hospital.Gen.ontology g in
      let p0 = Md_ontology.program m in
      let egd =
        Egd.make ~name:"one_nurse_per_unit_day"
          ~body:
            [ Atom.make "working_schedules" [ v "U"; v "D"; v "N1"; v "T1" ];
              Atom.make "working_schedules" [ v "U"; v "D"; v "N2"; v "T2" ] ]
          (v "N1") (v "N2")
      in
      let p1 = Program.make ~tgds:p0.Program.tgds ~egds:[ egd ] () in
      let i = Md_ontology.instance m in
      let t0 = median_time (fun () -> Chase.run p0 i) in
      let t1 = median_time (fun () -> Chase.run p1 i) in
      Printf.printf "%8d %14.4f %14.4f\n" n t0 t1;
      (match (Chase.run p1 i).Chase.outcome with
       | Chase.Saturated -> ()
       | o ->
         Format.printf "  unexpected outcome with EGD: %a@." Chase.pp_outcome o))
    [ 20; 40; 80 ];
  Printf.printf
    "\n(the generated schedules satisfy the EGD, so this measures pure\n\
    \ checking cost: one full evaluation of the EGD body per round)\n"

let report_ablation_incremental () =
  banner "Ablation - incremental vs full re-assessment (one new tuple)";
  Printf.printf "%8s %14s %14s %10s\n" "patients" "full(s)" "incr(s)" "agree";
  List.iter
    (fun n ->
      let g = Hospital.Gen.scale n in
      let ctx = Hospital.Gen.context g in
      let src = Hospital.Gen.source g in
      let a0 = Context.assess ctx ~source:src in
      let new_row =
        (* a fresh instant is unknown to the Time dimension, so use the
           patient's day-1 instant with a revised value *)
        R.Tuple.of_list
          [ R.Value.sym (Hospital.Gen.day_name 1 ^ "-" ^ Hospital.Gen.patient_name 2 ^ "-01");
            R.Value.sym (Hospital.Gen.patient_name 2); R.Value.real 39.9 ]
      in
      let t_incr =
        median_time (fun () ->
            Context.assess_incremental a0 ~added:[ ("measurements", new_row) ])
      in
      let src' = R.Instance.copy src in
      ignore (R.Instance.add_tuple src' "measurements" new_row);
      let t_full = median_time (fun () -> Context.assess ctx ~source:src') in
      let a_incr =
        Context.assess_incremental a0 ~added:[ ("measurements", new_row) ]
      in
      let a_full = Context.assess ctx ~source:src' in
      let agree =
        match
          ( Context.quality_version a_incr "measurements",
            Context.quality_version a_full "measurements" )
        with
        | Some q1, Some q2 ->
          R.Tuple.Set.equal (R.Relation.to_set q1) (R.Relation.to_set q2)
        | _ -> false
      in
      Printf.printf "%8d %14.4f %14.4f %10b\n" n t_full t_incr agree)
    [ 20; 40; 80 ];
  Printf.printf
    "\n(the incremental chase only fires triggers involving the new\n\
    \ tuple's consequences)\n"

let report_store () =
  banner "Store - checkpoint overhead vs checkpoint-free chase";
  let module Store = Mdqa_store.Store in
  let workloads =
    [ ("hospital", fun () -> Hospital.ontology ());
      ("hospital-x80", fun () -> Hospital.Gen.ontology (Hospital.Gen.scale 80));
      ("telecom", fun () -> Mdqa_telecom.Telecom.ontology ()) ]
  in
  Printf.printf "%-14s %12s %12s %10s %12s %12s %12s %12s\n" "workload"
    "plain(s)" "ckpt(s)" "overhead" "ckpt-bytes" "snap-bytes" "recover(s)"
    "status";
  let rows =
    List.map
      (fun (name, mk) ->
        let m = mk () in
        let plain_t =
          median_time (fun () ->
              Chase.run (Md_ontology.program m) (Md_ontology.instance m))
        in
        let ckpt_bytes, snapshot_bytes, ckpt_t = checkpointed_chase m in
        (* recovery cost: load + journal replay of a completed store.  A
           store that fails to load is this row's outcome — the other
           workloads still get measured. *)
        let status = ref "ok" in
        let recover_t =
          let path = Filename.temp_file "mdqa_bench" ".snap" in
          Fun.protect
            ~finally:(fun () ->
              List.iter
                (fun p -> if Sys.file_exists p then Sys.remove p)
                [ path; path ^ ".journal"; path ^ ".tmp" ])
            (fun () ->
              let guard = Guard.unlimited () in
              let store =
                Store.create ~guard ~path
                  ~program_text:"% bench workload (not resumable)"
                  ~variant:Chase.Restricted ()
              in
              ignore
                (Chase.run ~guard
                   ~checkpoint:(Store.checkpoint store)
                   (Md_ontology.program m) (Md_ontology.instance m));
              median_time (fun () ->
                  match Store.load ~path with
                  | Ok _ -> ()
                  | Error _ -> status := "degraded:load-failed"))
        in
        let overhead = if plain_t > 0. then ckpt_t /. plain_t else 1. in
        Printf.printf "%-14s %12.4f %12.4f %9.2fx %12d %12d %12.5f %12s\n"
          name plain_t ckpt_t overhead ckpt_bytes snapshot_bytes recover_t
          !status;
        Printf.sprintf
          "    {\"workload\": %S, \"chase_s\": %.6f, \
           \"chase_checkpointed_s\": %.6f, \"overhead_ratio\": %.4f, \
           \"checkpoint_bytes\": %d, \"snapshot_bytes\": %d, \
           \"recover_s\": %.6f, \"status\": %S}"
          name plain_t ckpt_t overhead ckpt_bytes snapshot_bytes recover_t
          !status)
      workloads
  in
  let json =
    Printf.sprintf
      "{\n  \"experiment\": \"store\",\n  \"description\": \"checkpoint \
       overhead vs checkpoint-free chase\",\n  \"rows\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" rows)
  in
  let oc = open_out "BENCH_store.json" in
  output_string oc json;
  close_out oc;
  Printf.printf
    "\n(overhead = durable chase wall time / plain chase wall time;\n\
    \ recover = Store.load, i.e. snapshot read + journal replay)\n";
  Printf.printf "\nBENCH_store.json written\n"

(* ------------------------------------------------------------------ *)
(* Serve: request latency against a warm forked server, plus a drain
   check.  The server child runs the real event loop over a Unix
   socket; the parent is the real retrying client. *)

let report_serve () =
  banner "Serve - concurrent-client throughput, inline vs worker pool";
  let module Service = Mdqa_server.Service in
  let module Server = Mdqa_server.Server in
  let module Sclient = Mdqa_server.Client in
  let module Sproto = Mdqa_server.Protocol in
  let n_facts = 400 and n_clients = 8 and per_client = 100 in
  let n_requests = n_clients * per_client in
  let program_file = Filename.temp_file "mdqa_serve_bench" ".dl" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists program_file then Sys.remove program_file)
  @@ fun () ->
  let oc = open_out program_file in
  for i = 1 to n_facts do
    Printf.fprintf oc "edge(n%d, n%d).\n" i (i + 1)
  done;
  output_string oc "linked(X, Y) :- edge(X, Y).\n";
  output_string oc "linked(X, Z) :- edge(X, Y), edge(Y, Z).\n";
  close_out oc;
  let request =
    {|{"kind":"query","query":"q(X, Z) :- linked(X, Z)","engine":"chase"}|}
  in
  (* One measured configuration: a forked server (workers as given),
     [n_clients] forked clients hammering it concurrently — a single
     sequential client can never expose pool parallelism — and a
     graceful-drain check on the way down. *)
  let run_config ~label ~workers =
    let sock = Filename.temp_file "mdqa_serve_bench" ".sock" in
    Sys.remove sock;
    let lat_files =
      List.init n_clients (fun i ->
          Filename.temp_file (Printf.sprintf "mdqa_serve_lat%d" i) ".txt")
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun p -> if Sys.file_exists p then Sys.remove p)
          (sock :: lat_files))
    @@ fun () ->
    (* don't let children flush inherited copies of our stdout buffer *)
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      Stdlib.exit
        (match Service.load ~program_file () with
         | Error _ -> 1
         | Ok svc ->
           let cfg =
             { (Server.default_config (Server.Unix_path sock)) with
               Server.workers;
               watchdog = Some 30. }
           in
           Server.run cfg svc)
    | server_pid ->
      let probe = Sclient.create ~addr:sock () in
      let up = Sclient.ping probe in
      Sclient.close probe;
      (match up with
       | Error e ->
         Printf.printf "serve bench (%s): server never came up: %s\n" label e;
         verify (Printf.sprintf "serve bench %s server came up" label) false;
         Unix.kill server_pid Sys.sigkill;
         ignore (Unix.waitpid [] server_pid);
         (0., 0., 0., 0., 0)
       | Ok _ ->
         let t0 = Unix.gettimeofday () in
         let client_pids =
           List.map
             (fun lat_file ->
               flush stdout;
               flush stderr;
               match Unix.fork () with
               | 0 ->
                 let oc = open_out lat_file in
                 let client = Sclient.create ~addr:sock () in
                 for _ = 1 to per_client do
                   let s = Unix.gettimeofday () in
                   let ok =
                     match Sclient.roundtrip client request with
                     | Ok r when r.Sproto.status = "complete" -> 1
                     | Ok _ | Error _ -> 0
                   in
                   Printf.fprintf oc "%.9f %d\n"
                     (Unix.gettimeofday () -. s)
                     ok
                 done;
                 Sclient.close client;
                 close_out oc;
                 Unix._exit 0
               | pid -> pid)
             lat_files
         in
         List.iter (fun pid -> ignore (Unix.waitpid [] pid)) client_pids;
         let wall = Unix.gettimeofday () -. t0 in
         let lats = ref [] and complete = ref 0 in
         List.iter
           (fun lat_file ->
             let ic = open_in lat_file in
             (try
                while true do
                  Scanf.sscanf (input_line ic) "%f %d" (fun l ok ->
                      lats := l :: !lats;
                      complete := !complete + ok)
                done
              with End_of_file | Scanf.Scan_failure _ -> ());
             close_in ic)
           lat_files;
         let lats = Array.of_list !lats in
         Array.sort compare lats;
         let n = Array.length lats in
         let pct p =
           if n = 0 then 0.
           else
             lats.(min (n - 1)
                     (int_of_float (ceil (p *. float_of_int n /. 100.)) - 1))
         in
         let p50 = pct 50. and p95 = pct 95. and p99 = pct 99. in
         let throughput = float_of_int n_requests /. wall in
         Printf.printf
           "%-12s %4d reqs x %d clients: p50 %.5fs  p95 %.5fs  p99 %.5fs  \
            %6.0f req/s  (%d complete)\n"
           label n_requests n_clients p50 p95 p99 throughput !complete;
         verify
           (Printf.sprintf "every serve-bench request answered complete (%s)"
              label)
           (!complete = n_requests);
         Unix.kill server_pid Sys.sigterm;
         let _, wstatus = Unix.waitpid [] server_pid in
         verify
           (Printf.sprintf "serve (%s) drains to exit 0 on SIGTERM" label)
           (wstatus = Unix.WEXITED 0);
         (p50, p95, p99, throughput, !complete))
  in
  let p50_0, p95_0, p99_0, tp_0, _ = run_config ~label:"workers=0" ~workers:0 in
  let p50_4, p95_4, p99_4, tp_4, _ = run_config ~label:"workers=4" ~workers:4 in
  let speedup = if tp_0 > 0. then tp_4 /. tp_0 else 0. in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "\npool speedup: %.2fx on %d cores\n" speedup cores;
  if cores >= 4 then
    verify "worker pool at least doubles concurrent throughput"
      (speedup >= 2.0)
  else
    Printf.printf
      "(speedup target not enforced: only %d cores available)\n" cores;
  let row ~label ~workers p50 p95 p99 tp =
    Printf.sprintf
      "    {\"config\": %S, \"workers\": %d, \"requests\": %d, \
       \"clients\": %d, \"p50_s\": %.6f, \"p95_s\": %.6f, \"p99_s\": %.6f, \
       \"throughput_rps\": %.1f}"
      label workers n_requests n_clients p50 p95 p99 tp
  in
  let gated = cores >= 4 in
  let note =
    if gated then ""
    else
      Printf.sprintf
        ",\n  \"note\": \"speedup target not enforced: only %d cores \
         available; the pool cannot parallelize\""
        cores
  in
  let json =
    Printf.sprintf
      "{\n  \"experiment\": \"serve\",\n  \"description\": \"concurrent \
       request throughput against warm mdqa serve over a Unix socket, \
       inline vs supervised worker pool\",\n  \"cores\": %d,\n  \
       \"gated\": %b%s,\n  \
       \"pool_speedup\": %.4f,\n  \"rows\": [\n%s,\n%s\n  ]\n}\n"
      cores gated note speedup
      (row ~label:"workers=0" ~workers:0 p50_0 p95_0 p99_0 tp_0)
      (row ~label:"workers=4" ~workers:4 p50_4 p95_4 p99_4 tp_4)
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "\nBENCH_serve.json written\n"

(* Tracer overhead budget: the C3 chase with a tracer installed (every
   round and rule firing emitting a span) must stay within 2% of the
   tracer-off run of the same binary.  This is a stronger check than
   the one the budget actually promises — "instrumented but off costs
   nothing" — because if even full tracing fits the budget, the off
   mode (one ref read per potential span) certainly does.  Min-of-5
   interleaved samples cancel GC and thermal drift; three attempts
   absorb an unlucky scheduler. *)
let report_overhead () =
  banner "Overhead - tracer on vs off on the C3 chase (budget: <= 2%)";
  let g = Hospital.Gen.scale 160 in
  let m = Hospital.Gen.ontology g in
  let p = Md_ontology.program m in
  let i = Md_ontology.instance m in
  let run () = ignore (Chase.run p i) in
  let tracer = Trace.create () in
  let sample_off () = snd (time_once run) in
  let sample_on () =
    Trace.install tracer;
    Fun.protect
      ~finally:(fun () ->
        Trace.uninstall ();
        Trace.clear tracer)
      (fun () -> snd (time_once run))
  in
  let attempt k =
    (* escalate the sample count on retries: a noisy machine needs more
       draws before the min converges to the true floor *)
    let n = 5 * k in
    let min_off = ref infinity and min_on = ref infinity in
    for _ = 1 to n do
      min_off := Float.min !min_off (sample_off ());
      min_on := Float.min !min_on (sample_on ())
    done;
    let ratio = !min_on /. !min_off in
    Printf.printf "attempt %d: off %.4fs  on %.4fs  ratio %.4f (%d samples)\n"
      k !min_off !min_on ratio n;
    ratio <= 1.02
  in
  let rec attempts k = k <= 4 && (attempt k || attempts (k + 1)) in
  verify "tracer overhead within the 2% budget" (attempts 1)

(* Profiler overhead budget: the C3 assessment with the cost-attribution
   profiler installed (per-rule timing, per-atom selectivity counting,
   GC sampling at round boundaries) must stay within 5% of the
   profiler-off run.  Same min-of-N interleaved discipline as the
   tracer gate; the budget is wider because the profiler does real work
   per body atom visit, not just a ref read. *)
let report_profile_overhead () =
  banner
    "Overhead - profiler on vs off on the C3 assessment (budget: <= 5%)";
  let g = Hospital.Gen.scale 160 in
  let ctx = Hospital.Gen.context g in
  let src = Hospital.Gen.source g in
  let run () = ignore (Context.assess ctx ~source:src) in
  let profiler = Profile.create () in
  let sample_off () = snd (time_once run) in
  let sample_on () =
    Profile.install profiler;
    Fun.protect
      ~finally:(fun () ->
        Profile.uninstall ();
        Profile.clear profiler)
      (fun () -> snd (time_once run))
  in
  let attempt k =
    let n = 5 * k in
    let min_off = ref infinity and min_on = ref infinity in
    for _ = 1 to n do
      min_off := Float.min !min_off (sample_off ());
      min_on := Float.min !min_on (sample_on ())
    done;
    let ratio = !min_on /. !min_off in
    Printf.printf "attempt %d: off %.4fs  on %.4fs  ratio %.4f (%d samples)\n"
      k !min_off !min_on ratio n;
    ratio <= 1.05
  in
  let rec attempts k = k <= 4 && (attempt k || attempts (k + 1)) in
  verify "profiler overhead within the 5% budget" (attempts 1)

let scaling () =
  report_c3 ();
  report_c4 ();
  report_ablation_chase ();
  report_ablation_pruning ();
  report_ablation_goal_directed ();
  report_ablation_core ();
  report_ablation_egd_overhead ();
  report_ablation_incremental ();
  report_store ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure pipeline *)

let micro () =
  banner "Micro-benchmarks (bechamel)";
  let open Bechamel in
  let open Toolkit in
  let paper_ontology = Hospital.ontology () in
  let paper_context = Hospital.context () in
  let paper_source = Hospital.source () in
  let g40 = Hospital.Gen.scale 40 in
  let m40 = Hospital.Gen.ontology g40 in
  let ctx40 = Hospital.Gen.context g40 in
  let src40 = Hospital.Gen.source g40 in
  let up = Hospital.upward_ontology () in
  let pu_query =
    Query.make ~name:"pu" ~head:[ v "U"; v "D" ]
      [ Atom.make "patient_unit" [ v "U"; v "D"; c "Tom Waits" ] ]
  in
  let tests =
    [ Test.make ~name:"t2/quality-version"
        (Staged.stage (fun () ->
             Context.assess paper_context ~source:paper_source));
      Test.make ~name:"t4-t5/ontology-chase"
        (Staged.stage (fun () -> Md_ontology.chase paper_ontology));
      Test.make ~name:"e5/query-via-chase"
        (Staged.stage (fun () ->
             Md_ontology.certain_answers paper_ontology
               Hospital.example5_query));
      Test.make ~name:"e5/query-via-proof"
        (Staged.stage (fun () ->
             Md_ontology.proof_answers paper_ontology Hospital.example5_query));
      Test.make ~name:"e7/rewrite-query"
        (Staged.stage (fun () ->
             Context.rewrite_query paper_context Hospital.doctor_query));
      Test.make ~name:"c1/ws-check"
        (Staged.stage (fun () -> Md_ontology.classes paper_ontology));
      Test.make ~name:"c2/separability"
        (Staged.stage (fun () -> Md_ontology.separability paper_ontology));
      Test.make ~name:"c4/fo-rewrite"
        (Staged.stage (fun () -> Md_ontology.rewrite_answers up pu_query));
      Test.make ~name:"c4/chase-answer"
        (Staged.stage (fun () -> Md_ontology.certain_answers up pu_query));
      Test.make ~name:"c3/chase-scale40"
        (Staged.stage (fun () -> Md_ontology.chase m40));
      Test.make ~name:"c3/assess-scale40"
        (Staged.stage (fun () -> Context.assess ctx40 ~source:src40));
      Test.make ~name:"f1/summarizability"
        (Staged.stage (fun () ->
             Mdqa_multidim.Summarizability.diagnose Hospital.hospital_instance));
      (let telecom_ctx = Mdqa_telecom.Telecom.context () in
       let telecom_src = Mdqa_telecom.Telecom.source () in
       Test.make ~name:"telecom/quality-version"
         (Staged.stage (fun () ->
              Context.assess telecom_ctx ~source:telecom_src)))
    ]
  in
  let grouped = Test.make_grouped ~name:"mdqa" tests in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name o acc ->
        match Analyze.OLS.estimates o with
        | Some [ est ] -> (name, est) :: acc
        | _ -> (name, nan) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-34s %16s\n" "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%8.3f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-34s %16s\n" name pretty)
    rows

(* ------------------------------------------------------------------ *)

let () =
  (* the mode is the first non-flag argument (flags: --emit-metrics) *)
  let mode =
    let rec first i =
      if i >= Array.length Sys.argv then "all"
      else if String.length Sys.argv.(i) > 0 && Sys.argv.(i).[0] = '-' then
        first (i + 1)
      else Sys.argv.(i)
    in
    first 1
  in
  (match mode with
   | "report" -> reports ()
   | "scaling" -> scaling ()
   | "c3" -> report_c3 ()
   | "overhead" -> report_overhead ()
   | "profile-overhead" -> report_profile_overhead ()
   | "store" -> report_store ()
   | "serve" -> report_serve ()
   | "micro" -> micro ()
   | "all" | _ ->
     reports ();
     scaling ();
     micro ());
  banner
    (if !all_pass then "ALL REPRODUCTION CHECKS PASSED"
     else "SOME REPRODUCTION CHECKS FAILED");
  if not !all_pass then exit 1
