(* Tests for the telecom fixture: the DAG Calendar dimension,
   two-dimension navigation rules, and the CDR quality pipeline. *)

open Mdqa_multidim
open Mdqa_datalog
open Mdqa_context
module R = Mdqa_relational
module Telecom = Mdqa_telecom.Telecom

let sym = R.Value.sym

(* Certain answers over an ontology's compiled program and instance. *)
let answer engine m q =
  Answer.answer engine (Md_ontology.program m) (Md_ontology.instance m) q
let tuple_testable = Alcotest.testable R.Tuple.pp R.Tuple.equal

(* --- the DAG dimension --------------------------------------------- *)

let test_calendar_dag_shape () =
  let d = Telecom.calendar_dim in
  Alcotest.(check (list string)) "Day has two parents" [ "Month"; "Week" ]
    (Dim_schema.parents d "Day");
  Alcotest.(check int) "two paths Day -> Year" 2
    (List.length (Dim_schema.paths d ~source:"Day" ~target:"Year"));
  Alcotest.(check int) "Year level" 2 (Dim_schema.level d "Year")

let test_calendar_instance_strict_homogeneous () =
  let report = Dim_instance.diagnose Telecom.calendar_instance in
  Alcotest.(check bool) "strict across both paths" true report.strict;
  Alcotest.(check bool) "every day has a week and a month" true
    report.homogeneous

let test_calendar_rollups () =
  let up cat m =
    List.map R.Value.to_string
      (Dim_instance.rollup Telecom.calendar_instance (sym m) ~to_category:cat)
  in
  Alcotest.(check (list string)) "d10 week" [ "w2" ] (up "Week" "d10");
  Alcotest.(check (list string)) "d10 month" [ "m1" ] (up "Month" "d10");
  Alcotest.(check (list string)) "d17 month" [ "m2" ] (up "Month" "d17");
  Alcotest.(check (list string)) "both paths converge at y1" [ "y1" ]
    (up "Year" "d10")

(* --- rule analysis: two dimensions at once -------------------------- *)

let test_two_dimension_rules () =
  (match Dim_rule.analyze Telecom.md_schema Telecom.rule_cell_checked with
   | Ok info ->
     Alcotest.(check bool) "downward" true
       (info.Dim_rule.navigation = Dim_rule.Downward);
     Alcotest.(check (list string)) "both dimensions"
       [ "Calendar"; "Network" ] info.Dim_rule.dimensions
   | Error e -> Alcotest.fail e);
  (match Dim_rule.analyze Telecom.md_schema Telecom.rule_region_activity with
   | Ok info ->
     Alcotest.(check bool) "upward" true
       (info.Dim_rule.navigation = Dim_rule.Upward);
     Alcotest.(check (list string)) "both dimensions"
       [ "Calendar"; "Network" ] info.Dim_rule.dimensions
   | Error e -> Alcotest.fail e)

let test_ontology_classes_and_separability () =
  let m = Telecom.ontology () in
  let report = Md_ontology.classes m in
  Alcotest.(check bool) "weakly sticky" true report.Analysis.weakly_sticky;
  Alcotest.(check bool) "weakly acyclic (full rules)" true
    report.Analysis.weakly_acyclic;
  (* the crew EGD equates a plain attribute: the categorical-positions
     criterion refuses, the non-affected criterion accepts *)
  Alcotest.(check bool) "categorical-positions criterion fails" false
    (Md_ontology.separability m).Analysis.separable;
  Alcotest.(check bool) "non-affected criterion passes" true
    (Analysis.analyse (Md_ontology.program m)).Analysis.egds.Analysis
      .separable

(* --- the quality pipeline ------------------------------------------- *)

let assessment = lazy (Context.assess (Telecom.context ()) ~source:(Telecom.source ()))

let test_quality_version () =
  let a = Lazy.force assessment in
  Alcotest.(check bool) "saturated" true
    (a.Context.chase.Chase.outcome = Chase.Saturated);
  match Context.quality_version a "cdr" with
  | None -> Alcotest.fail "no quality version"
  | Some q ->
    Alcotest.(check int) "three quality CDRs" 3 (R.Relation.cardinal q);
    let days =
      List.map (fun t -> R.Value.to_string (R.Tuple.get t 0)) (R.Relation.to_list q)
      |> List.sort_uniq compare
    in
    Alcotest.(check (list string)) "expected days" Telecom.expected_quality_days
      days

let test_caller_query () =
  let a = Lazy.force assessment in
  match Context.clean_answers a Telecom.caller_query with
  | None -> Alcotest.fail "inconsistent"
  | Some answers ->
    (* alice's week-2 calls: (d10, c3) qualifies, (d10, c5) does not *)
    Alcotest.(check (list tuple_testable)) "only the checked cell"
      [ R.Tuple.of_list [ sym "d10"; sym "c3" ] ]
      answers

let test_assessment_ratio () =
  let a = Lazy.force assessment in
  match Assessment.report a with
  | [ r ] ->
    Alcotest.(check int) "original" 6 r.Assessment.original_size;
    Alcotest.(check int) "kept" 3 r.Assessment.kept;
    Alcotest.(check bool) "ratio 0.5" true
      (abs_float (r.Assessment.ratio -. 0.5) < 1e-9)
  | l -> Alcotest.failf "expected one report, got %d" (List.length l)

let test_region_activity_derived () =
  let a = Lazy.force assessment in
  let ra = R.Instance.get a.Context.chase.Chase.instance "region_activity" in
  (* calls in north cells in m1 and m2; south cells only m1 *)
  Alcotest.(check bool) "north m1" true
    (R.Relation.mem ra (R.Tuple.of_list [ sym "north"; sym "m1" ]));
  Alcotest.(check bool) "north m2" true
    (R.Relation.mem ra (R.Tuple.of_list [ sym "north"; sym "m2" ]));
  Alcotest.(check bool) "south m1" true
    (R.Relation.mem ra (R.Tuple.of_list [ sym "south"; sym "m1" ]));
  Alcotest.(check bool) "no south m2" false
    (R.Relation.mem ra (R.Tuple.of_list [ sym "south"; sym "m2" ]))

let test_decommissioned_constraint () =
  let a =
    Context.assess (Telecom.context ~bad_region:true ())
      ~source:(Telecom.source ~bad_region:true ())
  in
  match a.Context.chase.Chase.outcome with
  | Chase.Failed (Chase.Nc_violation { nc; _ }) ->
    Alcotest.(check string) "the decommissioning constraint"
      "nc_south_decommissioned" nc.Nc.name
  | o -> Alcotest.failf "expected violation, got %a" Chase.pp_outcome o

(* --- aggregation along the two DAG paths ----------------------------- *)

let test_aggregate_week_vs_month_paths () =
  let a = Lazy.force assessment in
  let q =
    match Context.quality_version a "cdr" with
    | Some q -> q
    | None -> Alcotest.fail "no quality version"
  in
  let totals to_category =
    match
      Aggregate.rollup Telecom.calendar_instance ~relation:q ~group_position:0
        ~to_category ~value_position:3 ~op:Aggregate.Sum ()
    with
    | Ok rows ->
      List.map (fun r -> (R.Value.to_string r.Aggregate.group, r.Aggregate.value)) rows
    | Error e -> Alcotest.fail e
  in
  (* quality CDRs: d03 (120, w1/m1), d10 (45, w2/m1), d17 (60, w3/m2) *)
  Alcotest.(check (list (pair string (float 1e-6)))) "weekly"
    [ ("w1", 120.); ("w2", 45.); ("w3", 60.) ]
    (totals "Week");
  Alcotest.(check (list (pair string (float 1e-6)))) "monthly"
    [ ("m1", 165.); ("m2", 60.) ]
    (totals "Month");
  (* both paths conserve the grand total *)
  let sum l = List.fold_left (fun acc (_, x) -> acc +. x) 0. l in
  Alcotest.(check (float 1e-6)) "paths agree on the total"
    (sum (totals "Week")) (sum (totals "Month"))

let test_proof_engine_on_dag () =
  (* cell_checked via the two-dimension downward rule, answered
     top-down *)
  let m = Telecom.ontology () in
  let q =
    Query.make ~name:"c1_days" ~head:[ Term.var "D" ]
      [ Atom.make "cell_checked" [ Term.Const (sym "c1"); Term.var "D" ] ]
  in
  match answer Answer.Proof m q with
  | Answer.Ok via_proof ->
    (* c1 is on t1, checked in w1 (d01..d07) and w3 (d15..d21) *)
    Alcotest.(check int) "14 days" 14 (List.length via_proof);
    Alcotest.(check bool) "chase agrees" true
      (answer Answer.Chase m q = Answer.Ok via_proof)
  | _ -> Alcotest.fail "proof search incomplete"

let case name f = Alcotest.test_case name `Quick f

let suites =
  [ ( "telecom.calendar",
      [ case "DAG shape" test_calendar_dag_shape;
        case "strict + homogeneous on both paths"
          test_calendar_instance_strict_homogeneous;
        case "roll-ups along both paths" test_calendar_rollups ] );
    ( "telecom.rules",
      [ case "two-dimension navigation analysis" test_two_dimension_rules;
        case "classes and separability" test_ontology_classes_and_separability
      ] );
    ( "telecom.pipeline",
      [ case "quality version (3 of 6 CDRs)" test_quality_version;
        case "caller query through the context" test_caller_query;
        case "assessment ratio" test_assessment_ratio;
        case "region activity derived upward" test_region_activity_derived;
        case "decommissioned-region constraint" test_decommissioned_constraint
      ] );
    ( "telecom.aggregation",
      [ case "week vs month DAG paths" test_aggregate_week_vs_month_paths;
        case "proof engine on the DAG rules" test_proof_engine_on_dag ] ) ]
