(* Call-detail-record quality in a mobile network.

   Highlights what the hospital example does not: a non-linear (DAG)
   Calendar dimension (days roll up both through weeks and through
   months), dimensional rules navigating two dimensions in one step,
   and aggregation along the two alternative roll-up paths.

   Run with: dune exec examples/telecom_quality.exe *)

open Mdqa_multidim
open Mdqa_datalog
module Telecom = Mdqa_telecom.Telecom
module Context = Mdqa_context.Context
module Assessment = Mdqa_context.Assessment
module R = Mdqa_relational

let section title = Printf.printf "\n=== %s ===\n\n" title

let () =
  section "The Calendar DAG";
  Format.printf "%a@.@." Dim_schema.pp Telecom.calendar_dim;
  Printf.printf "paths from Day to Year: %s\n"
    (String.concat "  |  "
       (List.map (String.concat " -> ")
          (Dim_schema.paths Telecom.calendar_dim ~source:"Day" ~target:"Year")));
  let report = Dim_instance.diagnose Telecom.calendar_instance in
  Printf.printf "strict: %b, homogeneous: %b\n" report.strict
    report.homogeneous;

  section "CDRs under assessment and the inspection log";
  R.Table_fmt.print ~title:"cdr" (R.Instance.get (Telecom.source ()) "cdr");
  print_newline ();
  R.Table_fmt.print ~title:"tower_checked (weekly, at Tower level)"
    Telecom.tower_checked;

  section "Dimensional rules navigating two dimensions at once";
  let m = Telecom.ontology () in
  List.iter
    (fun info -> Format.printf "%a@." Dim_rule.pp_info info)
    m.Md_ontology.rule_infos;
  Format.printf "@.classes:@.%a@." Analysis.pp_classes (Md_ontology.classes m);

  section "Quality assessment";
  let assessment = Context.assess (Telecom.context ()) ~source:(Telecom.source ()) in
  (match Context.quality_version assessment "cdr" with
   | Some q ->
     R.Table_fmt.print ~title:"cdr_q (tower inspected in the call's week)" q;
     Format.printf "@.%a@." Assessment.pp_report (Assessment.report assessment);
     section "Aggregation along the two DAG paths";
     let show to_category =
       match
         Aggregate.rollup Telecom.calendar_instance ~relation:q
           ~group_position:0 ~to_category ~value_position:3
           ~op:Aggregate.Sum ()
       with
       | Ok rows ->
         Printf.printf "quality minutes by %s:\n" to_category;
         List.iter (fun r -> Format.printf "  %a@." Aggregate.pp_row r) rows
       | Error e -> print_endline e
     in
     show "Week";
     show "Month"
   | None -> print_endline "no quality version");

  section "Quality query: Alice's calls in week 2";
  Format.printf "%a@." Query.pp Telecom.caller_query;
  (match Context.clean_answers assessment Telecom.caller_query with
   | Some answers ->
     List.iter (fun t -> Format.printf "  %a@." R.Tuple.pp t) answers
   | None -> print_endline "inconsistent");

  section "The decommissioned south region";
  let bad =
    Context.assess (Telecom.context ~bad_region:true ())
      ~source:(Telecom.source ~bad_region:true ())
  in
  Format.printf "assessing with a south-region call in month m2: %a@."
    Chase.pp_outcome bad.Context.chase.Chase.outcome
