(* Dimensional navigation (the paper's Examples 2, 5 and 6).

   - Example 2/5: a query about Mark's shifts in ward W2 has no answer
     in the extensional Shifts table; the institutional guideline
     (rule (8)) propagates WorkingSchedules data *down* from units to
     wards, inventing a labeled null for the unknown shift attribute.
   - Example 6: DischargePatients records that a patient left an
     institution without saying which unit they were in; rule (9)
     (form (10)) drills down with an *existential categorical* value —
     disjunctive knowledge at the unit level.

   Run with: dune exec examples/hospital_navigation.exe *)

module Hospital = Mdqa_hospital.Hospital
module Md_ontology = Mdqa_multidim.Md_ontology
module Navigation = Mdqa_multidim.Navigation
module R = Mdqa_relational
open Mdqa_datalog

let v = Term.var
let c s = Term.Const (R.Value.sym s)

let section title = Printf.printf "\n=== %s ===\n\n" title

let () =
  let m = Hospital.ontology () in

  section "Extensional data";
  R.Table_fmt.print ~title:"working_schedules (Table III)"
    Hospital.working_schedules;
  print_newline ();
  R.Table_fmt.print ~title:"shifts (Table IV, extensional)" Hospital.shifts;

  section "Rule (8): downward navigation Unit -> Ward";
  Format.printf "%a@." Tgd.pp Hospital.rule8;
  let chased = Md_ontology.chase m in
  Format.printf "chase: %a@." Chase.pp_outcome chased.Chase.outcome;
  let shifts_after = R.Instance.get chased.Chase.instance "shifts" in
  print_newline ();
  R.Table_fmt.print ~title:"shifts after the chase (nulls = unknown shifts)"
    shifts_after;

  section "Example 5: the dates Mark works in ward W1";
  Format.printf "query: %a@." Query.pp Hospital.example5_query;
  (match Answer.of_fixpoint chased Hospital.example5_query with
   | Answer.Ok answers ->
     List.iter (fun t -> Format.printf "  answer: %a@." R.Tuple.pp t) answers
   | _ -> print_endline "  chase failed");
  (* the search charges its resolution steps to the guard *)
  let guard = Guard.unlimited () in
  let proof =
    Proof.answer ~guard (Md_ontology.program m) (Md_ontology.instance m)
      Hospital.example5_query
  in
  Printf.printf
    "DeterministicWSQAns agrees (%d resolution steps, complete=%b):\n"
    (Guard.consumption guard).Guard.steps
    (Guard.degraded proof = None);
  List.iter (fun t -> Format.printf "  answer: %a@." R.Tuple.pp t)
    (Guard.value proof);

  section "The generated shift value is not certain";
  let q_shift =
    Query.make ~name:"marks_shift" ~head:[ v "S" ]
      [ Atom.make "shifts" [ c "W1"; c "Sep/9"; c "Mark"; v "S" ] ]
  in
  (match Answer.of_fixpoint chased q_shift with
   | Answer.Ok [] ->
     print_endline
       "asking for the shift itself returns nothing: the chase only\n\
        knows a labeled null there (incomplete lower-level data)."
   | Answer.Ok _ -> print_endline "unexpected certain answer!"
   | _ -> print_endline "chase failed");

  section "Example 6: disjunctive downward navigation (rule (9))";
  R.Table_fmt.print ~title:"discharge_patients (Table V)"
    Hospital.discharge_patients;
  print_newline ();
  Format.printf "%a@.@." Tgd.pp Hospital.rule9;
  let pu = R.Instance.get chased.Chase.instance "patient_unit" in
  R.Table_fmt.print
    ~title:"patient_unit after the chase (null units from discharges)" pu;
  let q_joint =
    Query.boolean
      [ Atom.make "institution_unit" [ c "H2"; v "U" ];
        Atom.make "patient_unit" [ v "U"; c "Oct/5"; c "Elvis Costello" ] ]
  in
  Printf.printf
    "\nBCQ 'was Elvis Costello in *some* unit of H2 on Oct/5?': %b\n"
    (Proof.entails (Md_ontology.program m) (Md_ontology.instance m) q_joint);

  section "Data-level navigation API (no chase)";
  let rolled =
    Navigation.rollup Hospital.hospital_instance
      ~relation:Hospital.patient_ward ~position:0 ~to_category:"Unit"
      ~name:"patient_unit_rolled" ()
  in
  R.Table_fmt.print ~title:"Navigation.rollup of patient_ward to Unit" rolled
