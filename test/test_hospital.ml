(* End-to-end reproduction of the paper's running example: the quality
   context computes Table II from Table I, the doctor's quality query,
   Example 5's downward-navigation answer, Example 6's disjunctive
   downward rule, and the assessment metrics. *)

open Mdqa_datalog
open Mdqa_context
module R = Mdqa_relational
module Hospital = Mdqa_hospital.Hospital

let v = Term.var
let c s = Term.Const (R.Value.sym s)
let sym = R.Value.sym

(* Certain answers over an ontology's compiled program and instance. *)
let answer engine m q =
  Answer.answer engine (Mdqa_multidim.Md_ontology.program m) (Mdqa_multidim.Md_ontology.instance m) q
let tuple_testable = Alcotest.testable R.Tuple.pp R.Tuple.equal

let assessment = lazy (Context.assess (Hospital.context ()) ~source:(Hospital.source ()))

let test_chase_saturates () =
  let a = Lazy.force assessment in
  Alcotest.(check bool) "saturated" true
    (a.Context.chase.Chase.outcome = Chase.Saturated)

(* Experiment T2: the computed quality version equals Table II. *)
let test_measurements_q_is_table2 () =
  let a = Lazy.force assessment in
  match Context.quality_version a "measurements" with
  | None -> Alcotest.fail "no quality version computed"
  | Some q ->
    Alcotest.(check int) "two quality tuples" 2 (R.Relation.cardinal q);
    Alcotest.(check bool) "equals Table II" true
      (R.Tuple.Set.equal (R.Relation.to_set q)
         (R.Relation.to_set Hospital.expected_measurements_q))

(* Experiment F2/E7: the doctor's query through the context. *)
let test_doctor_query () =
  let a = Lazy.force assessment in
  match Context.clean_answers a Hospital.doctor_query with
  | None -> Alcotest.fail "chase failed"
  | Some answers ->
    Alcotest.(check (list tuple_testable)) "row 1 of Table I"
      [ R.Tuple.of_list [ sym "Sep/5-12:10"; sym "Tom Waits"; R.Value.real 38.2 ] ]
      answers

let test_doctor_query_dirty_semantics () =
  (* Without the context, the same query over raw measurements also
     returns Lou Reed-free but unvetted data: rows at Sep/5 noon
     include Tom's row regardless of quality; with P unconstrained it
     would also include Lou's Sep/5-12:05. *)
  let src = Hospital.source () in
  let raw = Query.certain src Hospital.doctor_query in
  Alcotest.(check int) "raw answer is the same row here" 1 (List.length raw);
  let no_patient_filter =
    Query.make ~name:"window_only"
      ~cmps:
        [ Atom.Cmp.make Atom.Cmp.Ge (v "T") (c "Sep/5-11:45");
          Atom.Cmp.make Atom.Cmp.Le (v "T") (c "Sep/5-12:15") ]
      ~head:[ v "T"; v "P"; v "V" ]
      [ Atom.make "measurements" [ v "T"; v "P"; v "V" ] ]
  in
  Alcotest.(check int) "window without context: 2 rows (Tom + Lou)" 2
    (List.length (Query.certain src no_patient_filter))

(* Experiment T4/E5: downward navigation generates Mark's shifts. *)
let test_example5_downward () =
  let m = Hospital.ontology () in
  match answer Answer.Chase m Hospital.example5_query with
  | Answer.Ok answers ->
    Alcotest.(check (list tuple_testable)) "Sep/9"
      [ R.Tuple.of_list [ sym "Sep/9" ] ]
      answers
  | _ -> Alcotest.fail "chase failed"

(* Experiment T4/E2: rule (8) navigates from Mark's Standard-unit
   schedule down to both Standard wards on Sep/9. *)
let test_table4_mark_shifts () =
  let r = Mdqa_multidim.Md_ontology.chase (Hospital.ontology ()) in
  let shifts = R.Instance.get r.Chase.instance "shifts" in
  List.iter
    (fun w ->
      Alcotest.(check bool) ("Mark has a Sep/9 shift in " ^ w) true
        (R.Relation.probe shifts
           [ (0, sym w); (1, sym "Sep/9"); (2, sym "Mark") ]
        <> []))
    [ "W1"; "W2" ]

let test_example5_via_proof () =
  let m = Hospital.ontology () in
  match answer Answer.Proof m Hospital.example5_query with
  | Answer.Ok answers ->
    Alcotest.(check (list tuple_testable)) "Sep/9 via DeterministicWSQAns"
      [ R.Tuple.of_list [ sym "Sep/9" ] ]
      answers
  | _ -> Alcotest.fail "proof search incomplete"

let test_example5_shift_unknown () =
  (* the generated shift attribute is a null: asking for the shift
     value yields no certain answer *)
  let m = Hospital.ontology () in
  let q =
    Query.make ~name:"shift_of_mark" ~head:[ v "S" ]
      [ Atom.make "shifts" [ c "W1"; c "Sep/9"; c "Mark"; v "S" ] ]
  in
  (match answer Answer.Chase m q with
   | Answer.Ok [] -> ()
   | Answer.Ok l -> Alcotest.failf "expected none, got %d" (List.length l)
   | _ -> Alcotest.fail "chase failed")

(* Experiment T5/E6: rule (9) generates PatientUnit data with fresh
   unit nulls for discharged patients. *)
let test_rule9_disjunctive_downward () =
  let m = Hospital.ontology () in
  let r = Mdqa_multidim.Md_ontology.chase m in
  Alcotest.(check bool) "saturated" true (r.Chase.outcome = Chase.Saturated);
  let pu = R.Instance.get r.Chase.instance "patient_unit" in
  (* Elvis Costello only appears via discharge: his unit is a null *)
  let elvis =
    R.Relation.probe pu [ (2, sym "Elvis Costello") ]
  in
  Alcotest.(check int) "one tuple for Elvis" 1 (List.length elvis);
  Alcotest.(check bool) "unit is a null" true
    (R.Value.is_null (R.Tuple.get (List.hd elvis) 0));
  (* and the null is linked into institution_unit under H2 *)
  let iu = R.Instance.get r.Chase.instance "institution_unit" in
  let h2_units = R.Relation.probe iu [ (0, sym "H2") ] in
  Alcotest.(check bool) "null unit under H2" true
    (List.exists (fun t -> R.Value.is_null (R.Tuple.get t 1)) h2_units)

(* BCQ through the shared null (both atoms of rule (9)'s head). *)
let test_rule9_joint_query () =
  let m = Hospital.ontology () in
  let q =
    Query.boolean
      [ Atom.make "institution_unit" [ c "H2"; v "U" ];
        Atom.make "patient_unit" [ v "U"; c "Oct/5"; c "Elvis Costello" ] ]
  in
  (match answer Answer.Chase m q with
   | Answer.Ok _ -> ()
   | _ -> Alcotest.fail "chase failed");
  Alcotest.(check bool) "entailed via proof search" true
    (Proof.entails
       (Mdqa_multidim.Md_ontology.program m)
       (Mdqa_multidim.Md_ontology.instance m)
       q)

(* Assessment metrics: 2 of 6 measurements are up to quality. *)
let test_assessment_report () =
  let a = Lazy.force assessment in
  match Assessment.report a with
  | [ r ] ->
    Alcotest.(check string) "relation" "measurements" r.Assessment.relation;
    Alcotest.(check int) "original size" 6 r.Assessment.original_size;
    Alcotest.(check int) "kept" 2 r.Assessment.kept;
    Alcotest.(check int) "removed" 4 r.Assessment.removed;
    Alcotest.(check int) "added" 0 r.Assessment.added;
    Alcotest.(check bool) "ratio 1/3" true (abs_float (r.Assessment.ratio -. (2. /. 6.)) < 1e-9)
  | l -> Alcotest.failf "expected one report, got %d" (List.length l)

let test_quality_ratio_helpers () =
  let ratio =
    Assessment.quality_ratio ~original:Hospital.measurements
      ~quality:Hospital.expected_measurements_q
  in
  Alcotest.(check bool) "ratio" true (abs_float (ratio -. (2. /. 6.)) < 1e-9);
  Alcotest.(check int) "departure" 4
    (Assessment.departure ~original:Hospital.measurements
       ~quality:Hospital.expected_measurements_q)

(* The report's counts against their set-difference definitions, on
   random pairs of relations (overlapping, disjoint, empty, equal). *)
let prop_compare_relations =
  let rel =
    QCheck.Gen.(
      map
        (fun ps ->
          R.Relation.of_tuples
            (R.Rel_schema.of_names "r" [ "a"; "b" ])
            (List.map
               (fun (a, b) -> R.Tuple.of_list [ R.Value.int a; sym b ])
               ps))
        (list_size (0 -- 30) (pair (0 -- 6) (oneofl [ "x"; "y" ]))))
  in
  QCheck.Test.make ~name:"compare_relations = set differences" ~count:300
    (QCheck.make QCheck.Gen.(pair rel rel)) (fun (original, quality) ->
      let o = R.Relation.to_set original and q = R.Relation.to_set quality in
      let size = R.Tuple.Set.cardinal in
      let r = Assessment.compare_relations ~original ~quality in
      r.Assessment.original_size = size o
      && r.quality_size = size q
      && r.kept = size (R.Tuple.Set.inter o q)
      && r.removed = size (R.Tuple.Set.diff o q)
      && r.added = size (R.Tuple.Set.diff q o)
      && r.ratio
         = if size o = 0 then 1.0
           else float (size (R.Tuple.Set.inter o q)) /. float (size o))

(* The raw PatientWard (with the intensive-care tuple) makes the
   context inconsistent: assessment surfaces the NC violation. *)
let test_raw_context_inconsistent () =
  let a =
    Context.assess (Hospital.context ~raw_patient_ward:true ())
      ~source:(Hospital.source ())
  in
  (match a.Context.chase.Chase.outcome with
   | Chase.Failed (Chase.Nc_violation _) -> ()
   | o -> Alcotest.failf "expected NC violation, got %a" Chase.pp_outcome o);
  Alcotest.(check bool) "no quality version" true
    (Context.quality_version a "measurements" = None);
  Alcotest.(check bool) "no clean answers" true
    (Context.clean_answers a Hospital.doctor_query = None)

(* Query rewriting Q -> Q^q is a pure predicate substitution. *)
let test_rewrite_query () =
  let ctx = Hospital.context () in
  let q' = Context.rewrite_query ctx Hospital.doctor_query in
  Alcotest.(check (list string)) "body predicate substituted"
    [ "measurements_q" ]
    (List.map Atom.pred q'.Query.body);
  Alcotest.(check int) "comparisons preserved" 3 (List.length q'.Query.cmps)

(* Upward-only methodology (§IV): answering the doctor-relevant
   PatientUnit query by FO rewriting matches the chase. *)
let test_upward_rewriting_methodology () =
  let m = Hospital.upward_ontology () in
  let q =
    Query.make ~name:"tom_units" ~head:[ v "U"; v "D" ]
      [ Atom.make "patient_unit" [ v "U"; v "D"; c "Tom Waits" ] ]
  in
  let expected =
    [ R.Tuple.of_list [ sym "Standard"; sym "Sep/5" ];
      R.Tuple.of_list [ sym "Standard"; sym "Sep/6" ];
      R.Tuple.of_list [ sym "Terminal"; sym "Sep/9" ] ]
  in
  (match answer Answer.Rewrite m q with
   | Answer.Ok answers ->
     Alcotest.(check (list tuple_testable)) "exact units" expected answers
   | _ -> Alcotest.fail "rewriting degraded")

(* The scaled generator: quality pipeline works at size and the
   quality subset is the standard-unit, certified-nurse fraction. *)
let test_generator_pipeline () =
  let g = Hospital.Gen.default in
  let ctx = Hospital.Gen.context g in
  let src = Hospital.Gen.source g in
  let a = Context.assess ctx ~source:src in
  Alcotest.(check bool) "saturated" true
    (a.Context.chase.Chase.outcome = Chase.Saturated);
  match Context.quality_version a "measurements" with
  | None -> Alcotest.fail "no quality version"
  | Some q ->
    let total = R.Relation.cardinal (R.Instance.get src "measurements") in
    let qn = R.Relation.cardinal q in
    Alcotest.(check int) "total measurements" (g.Hospital.Gen.patients * g.Hospital.Gen.days) total;
    Alcotest.(check bool) "some but not all are quality" true
      (qn > 0 && qn < total)

let test_generator_referential_ok () =
  let g = Hospital.Gen.default in
  Alcotest.(check int) "no referential violations" 0
    (List.length
       (Mdqa_multidim.Md_ontology.referential_violations (Hospital.Gen.ontology g)))

let test_generator_doctor_query () =
  let g = Hospital.Gen.default in
  let a = Context.assess (Hospital.Gen.context g) ~source:(Hospital.Gen.source g) in
  match Context.clean_answers a (Hospital.Gen.doctor_query g) with
  | None -> Alcotest.fail "chase failed"
  | Some answers ->
    (* patient P0001 lives in ward of institution 1, unit 1 (standard):
       their day-1 measurement qualifies *)
    Alcotest.(check int) "one quality answer" 1 (List.length answers)

(* The join plan keeps the hot quality rule's work per trigger flat as
   the generator grows: scale 80 has twice the patients and twice the
   days of scale 40, so a plan that fans out over a patient's days
   before cutting (the old greedy order) doubles its tuples scanned
   per trigger.  The hot rule is the one scanning the most tuples. *)
let scanned_per_trigger n =
  let module Profile = Mdqa_obs.Profile in
  let g = Hospital.Gen.scale n in
  let p = Profile.create () in
  Profile.install p;
  Fun.protect ~finally:Profile.uninstall (fun () ->
      ignore (Context.assess (Hospital.Gen.context g) ~source:(Hospital.Gen.source g)));
  let snap = Profile.snapshot p in
  let scanned rule =
    List.fold_left
      (fun acc ((r, _, _), (a : Profile.atom_stat)) ->
        if r = rule then acc + a.Profile.scanned else acc)
      0 snap.Profile.atoms
  in
  let rule, st =
    List.fold_left
      (fun best (r, st) ->
        match best with
        | Some (b, _) when scanned b >= scanned r -> best
        | _ -> Some (r, st))
      None snap.Profile.rules
    |> Option.get
  in
  Alcotest.(check bool) (rule ^ " fired") true (st.Profile.triggers > 0);
  float_of_int (scanned rule) /. float_of_int st.Profile.triggers

let test_generator_hot_rule_flat () =
  let at40 = scanned_per_trigger 40 and at80 = scanned_per_trigger 80 in
  if at80 > 1.25 *. at40 then
    Alcotest.failf "scanned per trigger grew from %.2f (scale 40) to %.2f (scale 80)"
      at40 at80

(* Per-rule semi-naive marks: a rule's delta is every fact stamped since
   its own last enumeration began, so on scale 40 the quality rule
   checks one trigger per fire.  A delta per round would check 260
   triggers for its 130 fires, re-enumerating in round 2 what round 1
   fired.  Two rounds and 45 nulls, and the fixpoint is the naive
   chase's up to null labels. *)
let test_generator_trigger_per_fire () =
  let module Profile = Mdqa_obs.Profile in
  let g = Hospital.Gen.scale 40 in
  let ctx = Hospital.Gen.context g and source = Hospital.Gen.source g in
  let p = Profile.create () in
  Profile.install p;
  let a =
    Fun.protect ~finally:Profile.uninstall (fun () -> Context.assess ctx ~source)
  in
  let st = a.Context.chase.Chase.stats in
  let q =
    Option.get (Profile.find_rule (Profile.snapshot p) "measurements_q_gen")
  in
  Alcotest.(check int) "quality rule fires" 130 q.Profile.fires;
  Alcotest.(check int) "one trigger per fire" q.Profile.fires q.Profile.triggers;
  Alcotest.(check int) "rounds" 2 st.Chase.rounds;
  Alcotest.(check int) "nulls" 45 st.Chase.nulls_created;
  let naive =
    Chase.run ~semi_naive:false (Context.program ctx) (Context.prepare ctx ~source)
  in
  Alcotest.(check bool) "fixpoint = naive chase" true
    (Core_inst.hom_equivalent a.Context.chase.Chase.instance naive.Chase.instance)

(* C3 (§IV: chase and query answering are polynomial in the data) as
   counts: scale 80 has twice the patients of scale 40 over twice the
   days, so four times the patient/ward input.  The assessment's chase
   steps and emitted join rows must grow at most 1.15x as fast. *)
let guard_work n =
  let g = Hospital.Gen.scale n in
  let guard = Guard.unlimited () in
  ignore
    (Context.assess ~guard (Hospital.Gen.context g)
       ~source:(Hospital.Gen.source g));
  let input =
    R.Relation.cardinal (R.Instance.get (Hospital.Gen.data g) "patient_ward")
  in
  (input, Guard.consumption guard)

let test_generator_work_linear () =
  let in40, c40 = guard_work 40 and in80, c80 = guard_work 80 in
  let bound = 1.15 *. float_of_int in80 /. float_of_int in40 in
  let grows_within what a b =
    let growth = float_of_int b /. float_of_int a in
    if a = 0 || growth > bound then
      Alcotest.failf "%s grew %d -> %d (%.2fx) for %d -> %d input tuples" what
        a b growth in40 in80
  in
  grows_within "steps" c40.Guard.steps c80.Guard.steps;
  grows_within "rows" c40.Guard.rows c80.Guard.rows

(* The .mdq front end allocates in proportion to its input: checking
   the scale-64 text may allocate at most 1.15x as many words per input
   byte as the scale-32 text.  Allocated words, unlike time, do not
   depend on the host; 32 -> 64 is the smallest doubling at which a
   front end that is quadratic in the dimension members breaks the
   bound. *)
let scaled_text n =
  let g = Hospital.Gen.scale n in
  Md_pretty.context_to_string ~source:(Hospital.Gen.source g) ~queries:[]
    (Hospital.Gen.context g)

let check_allocation text =
  let allocated () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = allocated () in
  let checked = Md_parser.check_string text in
  let words = allocated () -. before in
  Alcotest.(check bool) "scaled text checks" true
    (checked.Md_parser.parsed <> None);
  (checked.Md_parser.diags, String.length text, words)

let allocation_linear text_of =
  let d32, b32, w32 = check_allocation (text_of 32)
  and _, b64, w64 = check_allocation (text_of 64) in
  let bound = 1.15 *. float_of_int b64 /. float_of_int b32 in
  let growth = w64 /. w32 in
  if growth > bound then
    Alcotest.failf
      "check_string allocated %.0f -> %.0f words (%.2fx) for %d -> %d input \
       bytes (bound %.2fx)"
      w32 w64 growth b32 b64 bound;
  d32

let test_front_end_allocation_linear () =
  ignore (allocation_linear scaled_text)

(* The same bound on a dirty text, whose warnings are located by
   lookup: every patient_ward fact names an undeclared ward (W045) and
   no Time member is linked to its day (W044). *)
let dirty_text n =
  String.split_on_char '\n' (scaled_text n)
  |> List.map (fun line ->
         let ward = "patient_ward(\"W" in
         match String.split_on_char ' ' line with
         | [ ""; ""; "member"; m; "in"; "Time"; "->"; _ ] ->
           Printf.sprintf "  member %s in Time." m
         | _ when String.starts_with ~prefix:ward line ->
           let n = String.length ward in
           "patient_ward(\"X" ^ String.sub line n (String.length line - n)
         | _ -> line)
  |> String.concat "\n"

let test_front_end_allocation_linear_dirty () =
  let diags = allocation_linear dirty_text in
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " reported") true
        (List.exists (fun (d : Diag.t) -> d.Diag.code = code) diags))
    [ "W044"; "W045" ]

(* C4 (§IV: upward-only ontologies are FO-rewritable): on the rule (7)
   ontology over the scaled data, FO rewriting, the chase and
   DeterministicWSQAns give the same answers at every size. *)
let test_generator_upward_engines_agree () =
  List.iter
    (fun n ->
      let g = Hospital.Gen.scale n in
      let hosp_inst, time_inst = Hospital.Gen.dim_instances g in
      let up =
        Mdqa_multidim.Md_ontology.make ~schema:Hospital.md_schema
          ~dim_instances:[ hosp_inst; time_inst; Hospital.device_instance ]
          ~data:(Hospital.Gen.data g) ~rules:[ Hospital.rule7 ] ()
      in
      let q =
        Query.make ~name:"p1_units" ~head:[ v "U"; v "D" ]
          [ Atom.make "patient_unit"
              [ v "U"; v "D"; c (Hospital.Gen.patient_name 1) ] ]
      in
      let size = Printf.sprintf " (scale %d)" n in
      let via_chase =
        match answer Answer.Chase up q with
        | Answer.Ok l -> l
        | _ -> Alcotest.fail ("chase did not saturate" ^ size)
      in
      Alcotest.(check bool) ("answers exist" ^ size) true (via_chase <> []);
      (match answer Answer.Rewrite up q with
       | Answer.Ok via_rw ->
         Alcotest.(check (list tuple_testable)) ("rewriting = chase" ^ size)
           via_chase via_rw
       | _ -> Alcotest.fail ("rewriting degraded" ^ size));
      match answer Answer.Proof up q with
      | Answer.Ok via_proof ->
        Alcotest.(check (list tuple_testable)) ("proof = chase" ^ size)
          via_chase via_proof
      | _ -> Alcotest.fail ("proof incomplete" ^ size))
    [ 20; 40; 80 ]

(* Incremental assessment: a new quality measurement arrives. *)
let test_incremental_assessment () =
  let a0 = Lazy.force assessment in
  (* Tom, Sep/5 at an instant already in the Time dimension: in the
     Standard unit, certified nurse on duty -> up to quality *)
  let new_row =
    R.Tuple.of_list [ sym "Sep/5-12:05"; sym "Tom Waits"; R.Value.real 37.9 ]
  in
  let a1 = Context.assess_incremental a0 ~added:[ ("measurements", new_row) ] in
  Alcotest.(check bool) "saturated" true
    (a1.Context.chase.Chase.outcome = Chase.Saturated);
  (match Context.quality_version a1 "measurements" with
   | Some q ->
     Alcotest.(check int) "three quality tuples now" 3 (R.Relation.cardinal q);
     Alcotest.(check bool) "contains the new row" true (R.Relation.mem q new_row)
   | None -> Alcotest.fail "no quality version");
  (* equal to a full re-assessment *)
  let source' = R.Instance.copy (Hospital.source ()) in
  ignore (R.Instance.add_tuple source' "measurements" new_row);
  let full = Context.assess (Hospital.context ()) ~source:source' in
  (match
     ( Context.quality_version a1 "measurements",
       Context.quality_version full "measurements" )
   with
   | Some q1, Some q2 ->
     Alcotest.(check bool) "incremental = full" true
       (R.Tuple.Set.equal (R.Relation.to_set q1) (R.Relation.to_set q2))
   | _ -> Alcotest.fail "missing quality versions");
  (* the original assessment object is unaffected *)
  (match Context.quality_version a0 "measurements" with
   | Some q -> Alcotest.(check int) "prior untouched" 2 (R.Relation.cardinal q)
   | None -> Alcotest.fail "prior lost")

let test_incremental_non_quality_row () =
  let a0 = Lazy.force assessment in
  (* Lou Reed is in the Terminal unit: the new row must NOT qualify *)
  let new_row =
    R.Tuple.of_list [ sym "Sep/6-11:50"; sym "Lou Reed"; R.Value.real 36.5 ]
  in
  let a1 = Context.assess_incremental a0 ~added:[ ("measurements", new_row) ] in
  match Context.quality_version a1 "measurements" with
  | Some q ->
    Alcotest.(check int) "still two quality tuples" 2 (R.Relation.cardinal q)
  | None -> Alcotest.fail "no quality version"

let case name f = Alcotest.test_case name `Quick f

let suites =
  [ ( "hospital.pipeline",
      [ case "context chase saturates" test_chase_saturates;
        case "T2: measurements_q equals Table II" test_measurements_q_is_table2;
        case "E7: doctor's quality query" test_doctor_query;
        case "raw query without context differs" test_doctor_query_dirty_semantics;
        case "assessment report (2 of 6)" test_assessment_report;
        case "quality ratio helpers" test_quality_ratio_helpers;
        QCheck_alcotest.to_alcotest prop_compare_relations;
        case "raw patient_ward makes context inconsistent"
          test_raw_context_inconsistent;
        case "query rewriting Q -> Q^q" test_rewrite_query ] );
    ( "hospital.navigation",
      [ case "E5: Mark's dates via chase" test_example5_downward;
        case "T4: rule (8) gives Mark shifts in W1 and W2"
          test_table4_mark_shifts;
        case "E5: via DeterministicWSQAns" test_example5_via_proof;
        case "E5: shift value is not certain" test_example5_shift_unknown;
        case "E6: rule (9) null unit" test_rule9_disjunctive_downward;
        case "E6: joint query through shared null" test_rule9_joint_query;
        case "§IV: upward rewriting methodology" test_upward_rewriting_methodology
      ] );
    ( "hospital.incremental",
      [ case "new quality measurement" test_incremental_assessment;
        case "new non-quality measurement" test_incremental_non_quality_row ] );
    ( "hospital.generator",
      [ case "scaled pipeline" test_generator_pipeline;
        case "scaled referential integrity" test_generator_referential_ok;
        case "scaled doctor query" test_generator_doctor_query;
        case "hot rule cost flat in scale" test_generator_hot_rule_flat;
        case "C3: chase work linear in the input" test_generator_work_linear;
        case "one trigger per fire of the quality rule" test_generator_trigger_per_fire;
        case "front end allocation linear in the input"
          test_front_end_allocation_linear;
        case "front end allocation linear in a dirty input"
          test_front_end_allocation_linear_dirty;
        case "C4: rewriting, chase and proof agree in scale"
          test_generator_upward_engines_agree ] ) ]
