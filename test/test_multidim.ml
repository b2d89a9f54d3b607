(* Tests for the multidimensional layer: dimension schemas/instances,
   summarizability, MD schemas, dimensional rule analysis, ontology
   compilation, data-level navigation. *)

open Mdqa_multidim
open Mdqa_datalog
module R = Mdqa_relational
module Hospital = Mdqa_hospital.Hospital

let v = Term.var
let c s = Term.Const (R.Value.sym s)
let sym = R.Value.sym

(* Certain answers over an ontology's compiled program and instance. *)
let answer engine m q =
  Answer.answer engine (Md_ontology.program m) (Md_ontology.instance m) q

(* ------------------------------------------------------------------ *)
(* Dim_schema *)

let hosp = Hospital.hospital_dim
let time = Hospital.time_dim

let test_schema_levels () =
  Alcotest.(check int) "Ward level" 0 (Dim_schema.level hosp "Ward");
  Alcotest.(check int) "Unit level" 1 (Dim_schema.level hosp "Unit");
  Alcotest.(check int) "Institution level" 2 (Dim_schema.level hosp "Institution");
  Alcotest.(check int) "All level" 3 (Dim_schema.level hosp Dim_schema.all)

let test_schema_relatives () =
  Alcotest.(check (list string)) "parents of Ward" [ "Unit" ]
    (Dim_schema.parents hosp "Ward");
  Alcotest.(check (list string)) "children of Unit" [ "Ward" ]
    (Dim_schema.children hosp "Unit");
  Alcotest.(check (list string)) "ancestors of Ward"
    [ "All"; "Institution"; "Unit" ]
    (Dim_schema.ancestors hosp "Ward");
  Alcotest.(check bool) "Institution ancestor of Ward" true
    (Dim_schema.is_ancestor hosp ~ancestor:"Institution" "Ward");
  Alcotest.(check bool) "Ward not its own ancestor" false
    (Dim_schema.is_ancestor hosp ~ancestor:"Ward" "Ward");
  Alcotest.(check (list string)) "bottoms" [ "Ward" ] (Dim_schema.bottoms hosp)

let test_schema_paths () =
  Alcotest.(check (list (list string))) "single path"
    [ [ "Ward"; "Unit"; "Institution" ] ]
    (Dim_schema.paths hosp ~source:"Ward" ~target:"Institution")

let test_schema_dag () =
  (* A non-linear DAG: Day rolls up to both Week and Month *)
  let d =
    Dim_schema.make ~name:"T2"
      ~edges:[ ("Day", "Week"); ("Day", "Month"); ("Week", "Year"); ("Month", "Year") ]
  in
  Alcotest.(check (list string)) "two parents" [ "Month"; "Week" ]
    (Dim_schema.parents d "Day");
  Alcotest.(check int) "two paths"
    2
    (List.length (Dim_schema.paths d ~source:"Day" ~target:"Year"))

let test_schema_cycle_rejected () =
  Alcotest.(check bool) "cycle raises" true
    (match
       Dim_schema.make ~name:"bad" ~edges:[ ("A", "B"); ("B", "A") ]
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_schema_all_not_child () =
  Alcotest.(check bool) "All as child raises" true
    (match Dim_schema.make ~name:"bad" ~edges:[ ("All", "B") ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Dim_instance *)

let hinst = Hospital.hospital_instance

let test_instance_members () =
  Alcotest.(check int) "4 wards" 4 (List.length (Dim_instance.members hinst "Ward"));
  Alcotest.(check (option string)) "W1 in Ward" (Some "Ward")
    (Dim_instance.category_of hinst (sym "W1"));
  Alcotest.(check (option string)) "all in All" (Some "All")
    (Dim_instance.category_of hinst Dim_instance.all_member)

let test_instance_rollup () =
  let up cat m = Dim_instance.rollup hinst (sym m) ~to_category:cat in
  Alcotest.(check (list string)) "W1 -> Standard" [ "Standard" ]
    (List.map R.Value.to_string (up "Unit" "W1"));
  Alcotest.(check (list string)) "W1 -> H1" [ "H1" ]
    (List.map R.Value.to_string (up "Institution" "W1"));
  Alcotest.(check (list string)) "W4 -> H2" [ "H2" ]
    (List.map R.Value.to_string (up "Institution" "W4"))

let test_instance_drilldown () =
  let down = Dim_instance.drilldown hinst (sym "Standard") ~to_category:"Ward" in
  Alcotest.(check (list string)) "Standard wards" [ "W1"; "W2" ]
    (List.map R.Value.to_string down);
  let down_h1 = Dim_instance.drilldown hinst (sym "H1") ~to_category:"Ward" in
  Alcotest.(check int) "H1 has three wards" 3 (List.length down_h1)

let test_instance_strict_homogeneous () =
  let report = Dim_instance.diagnose hinst in
  Alcotest.(check bool) "strict" true report.strict;
  Alcotest.(check bool) "homogeneous" true report.homogeneous;
  let time = Dim_instance.diagnose Hospital.time_instance in
  Alcotest.(check bool) "time strict" true time.strict;
  Alcotest.(check bool) "time homogeneous" true time.homogeneous

let test_instance_bad_links () =
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "unknown member" true
    (raises (fun () ->
         Dim_instance.make hosp
           ~members:[ ("Ward", [ "W1" ]) ]
           ~links:[ ("W1", "Nowhere") ]));
  Alcotest.(check bool) "non-adjacent link" true
    (raises (fun () ->
         Dim_instance.make hosp
           ~members:
             [ ("Ward", [ "W1" ]); ("Institution", [ "H1" ]) ]
           ~links:[ ("W1", "H1") ]));
  Alcotest.(check bool) "duplicate member across categories" true
    (raises (fun () ->
         Dim_instance.make hosp
           ~members:[ ("Ward", [ "X" ]); ("Unit", [ "X" ]) ]
           ~links:[]))

(* Every problem at once, each naming the member or link by its index;
   the link from X (an unknown category) is left to X's own report. *)
let test_instance_problems () =
  let checked =
    Dim_instance.check hosp
      ~members:
        [ ("Ward", [ "W1"; "W2" ]); ("Nowhere", [ "X" ]);
          ("Unit", [ "W2"; "U1" ]) ]
      ~links:
        [ ("W1", "U1"); ("W1", "ghost"); ("W2", "H9"); ("U1", "all");
          ("X", "U1") ]
  in
  Alcotest.(check bool) "all problems, in input order" true
    (match checked with
     | Ok _ -> false
     | Error problems ->
       problems
       = Dim_instance.
           [ Unknown_category { member = 2; name = "X"; category = "Nowhere" };
             Duplicate_member { member = 3; name = "W2"; first = "Ward" };
             Unknown_member { link = 1; name = "ghost" };
             Unknown_member { link = 2; name = "H9" };
             Off_schema_link
               { link = 3; child = "U1"; parent = "all";
                 child_category = "Unit"; parent_category = "All" } ]);
  Alcotest.(check bool) "a well-formed declaration is Ok" true
    (match
       Dim_instance.check hosp
         ~members:[ ("Ward", [ "W1" ]); ("Unit", [ "U1" ]) ]
         ~links:[ ("W1", "U1") ]
     with
     | Ok _ -> true
     | Error _ -> false)

(* Non-strict instance: W5 in two units. *)
let non_strict =
  Dim_instance.make hosp
    ~members:
      [ ("Ward", [ "W5" ]); ("Unit", [ "U1"; "U2" ]); ("Institution", [ "H" ]) ]
    ~links:[ ("W5", "U1"); ("W5", "U2"); ("U1", "H"); ("U2", "H") ]

let test_summarizability_non_strict () =
  let report = Dim_instance.diagnose non_strict in
  Alcotest.(check bool) "not strict" false report.Dim_instance.strict;
  Alcotest.(check bool) "has violation" true
    (List.exists
       (function Dim_instance.Non_strict _ -> true | _ -> false)
       report.Dim_instance.violations);
  Alcotest.(check bool) "ward->unit not summarizable" false
    (Dim_instance.summarizable non_strict ~from_category:"Ward"
       ~to_category:"Unit");
  Alcotest.(check bool) "hospital ward->unit summarizable" true
    (Dim_instance.summarizable hinst ~from_category:"Ward"
       ~to_category:"Unit")

let test_summarizability_non_covering () =
  (* W6 has no unit at all *)
  let inst =
    Dim_instance.make hosp
      ~members:
        [ ("Ward", [ "W6" ]); ("Unit", [ "U1" ]); ("Institution", [ "H" ]) ]
      ~links:[ ("U1", "H") ]
  in
  let report = Dim_instance.diagnose inst in
  Alcotest.(check bool) "not homogeneous" false
    report.Dim_instance.homogeneous;
  Alcotest.(check bool) "non-covering found" true
    (List.exists
       (function Dim_instance.Non_covering _ -> true | _ -> false)
       report.Dim_instance.violations)

(* ------------------------------------------------------------------ *)
(* Md_schema *)

let schema = Hospital.md_schema

let test_md_schema_naming () =
  Alcotest.(check string) "category pred" "ward" (Md_schema.category_pred "Ward");
  Alcotest.(check string) "camel category" "month_day"
    (Md_schema.category_pred "MonthDay");
  Alcotest.(check string) "pc pred" "unit_ward"
    (Md_schema.parent_child_pred ~parent:"Unit" ~child:"Ward")

let test_md_schema_position_kinds () =
  let kind = Md_schema.position_kind schema in
  (match kind "patient_ward" 0 with
   | Some (Md_schema.Category_pos { dimension = "Hospital"; category = "Ward" }) -> ()
   | _ -> Alcotest.fail "patient_ward[0] should be Ward");
  (match kind "patient_ward" 2 with
   | Some Md_schema.Plain_pos -> ()
   | _ -> Alcotest.fail "patient_ward[2] should be plain");
  (match kind "unit_ward" 0 with
   | Some (Md_schema.Category_pos { category = "Unit"; _ }) -> ()
   | _ -> Alcotest.fail "unit_ward[0] should be Unit");
  (match kind "ward" 0 with
   | Some (Md_schema.Category_pos { category = "Ward"; _ }) -> ()
   | _ -> Alcotest.fail "ward[0] should be Ward");
  Alcotest.(check bool) "unknown pred" true (kind "nonsense" 0 = None)

let test_md_schema_categorical_positions () =
  let pos = Md_schema.categorical_positions schema in
  Alcotest.(check bool) "patient_ward[0]" true (List.mem ("patient_ward", 0) pos);
  Alcotest.(check bool) "patient_ward[1]" true (List.mem ("patient_ward", 1) pos);
  Alcotest.(check bool) "patient_ward[2] not" false
    (List.mem ("patient_ward", 2) pos);
  Alcotest.(check bool) "unit_ward both" true
    (List.mem ("unit_ward", 0) pos && List.mem ("unit_ward", 1) pos)

let test_md_schema_validation () =
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "unknown category" true
    (raises (fun () ->
         Md_schema.make ~dimensions:[ hosp ]
           ~relations:
             [ R.Rel_schema.make "r"
                 [ R.Attribute.categorical "x" ~dimension:"Hospital"
                     ~category:"Zone" ] ]));
  Alcotest.(check bool) "unknown dimension" true
    (raises (fun () ->
         Md_schema.make ~dimensions:[ hosp ]
           ~relations:
             [ R.Rel_schema.make "r"
                 [ R.Attribute.categorical "x" ~dimension:"Nope"
                     ~category:"Ward" ] ]));
  Alcotest.(check bool) "shared category name across dims" true
    (raises (fun () ->
         Md_schema.make
           ~dimensions:
             [ hosp; Dim_schema.linear ~name:"Other" [ "Ward"; "Zone" ] ]
           ~relations:[]))

let kind_name = function
  | Md_schema.Name_clash -> "name clash"
  | Unknown_dimension -> "unknown dimension"
  | Unknown_category -> "unknown category"

let conflicts checked =
  match checked with
  | Ok _ -> Alcotest.fail "conflicts expected"
  | Error cs ->
    List.map (fun (c : Md_schema.conflict) -> (kind_name c.kind, c.subject)) cs

(* Every conflict at once, in declaration order, each with its kind and
   the declaration at fault. *)
let test_md_schema_conflict_kinds () =
  let rel name dimension category =
    R.Rel_schema.make name [ R.Attribute.categorical "x" ~dimension ~category ]
  in
  Alcotest.(check (list (pair string string))) "kinds and subjects"
    [ ("name clash", "Hospital"); ("unknown dimension", "r");
      ("unknown category", "s"); ("name clash", "s");
      ("unknown category", "s"); ("name clash", "ward") ]
    (conflicts
       (Md_schema.check
          ~dimensions:[ hosp; Dim_schema.linear ~name:"Hospital" [ "Zone" ] ]
          ~relations:
            [ rel "r" "Nope" "Ward"; rel "s" "Hospital" "Zone";
              rel "s" "Hospital" "All"; rel "ward" "Hospital" "Ward" ]))

(* The kind does not depend on the names in the message: a category
   shared by two dimensions is a name clash even when it is called
   "unknown category". *)
let test_md_schema_kind_not_from_text () =
  let shared name = Dim_schema.linear ~name [ "unknown category" ] in
  Alcotest.(check (list (pair string string))) "shared category"
    [ ("name clash", "B") ]
    (conflicts
       (Md_schema.check ~dimensions:[ shared "A"; shared "B" ] ~relations:[]))

(* [check]'s schema answers the inverse predicate lookups. *)
let test_md_schema_check_tables () =
  match
    Md_schema.check ~dimensions:(Md_schema.dimensions schema)
      ~relations:(Md_schema.relations schema)
  with
  | Error _ -> Alcotest.fail "the hospital schema was rejected"
  | Ok s ->
    Alcotest.(check (option (pair string string))) "ward"
      (Some ("Hospital", "Ward")) (Md_schema.category_of_pred s "ward");
    Alcotest.(check bool) "unit_ward" true
      (Md_schema.parent_child_of_pred s "unit_ward"
       = Some ("Hospital", "Unit", "Ward"));
    Alcotest.(check (option (pair string string))) "relations are not K"
      None (Md_schema.category_of_pred s "patient_ward")

(* ------------------------------------------------------------------ *)
(* Dim_rule *)

let test_rule7_analysis () =
  match Dim_rule.analyze schema Hospital.rule7 with
  | Ok info ->
    Alcotest.(check bool) "form 4" true (info.Dim_rule.form = Dim_rule.Form4);
    Alcotest.(check bool) "upward" true
      (info.Dim_rule.navigation = Dim_rule.Upward);
    Alcotest.(check (list string)) "Hospital dimension" [ "Hospital" ]
      info.Dim_rule.dimensions
  | Error e -> Alcotest.fail e

let test_rule8_analysis () =
  match Dim_rule.analyze schema Hospital.rule8 with
  | Ok info ->
    Alcotest.(check bool) "form 4" true (info.Dim_rule.form = Dim_rule.Form4);
    Alcotest.(check bool) "downward" true
      (info.Dim_rule.navigation = Dim_rule.Downward)
  | Error e -> Alcotest.fail e

let test_rule9_analysis () =
  match Dim_rule.analyze schema Hospital.rule9 with
  | Ok info ->
    Alcotest.(check bool) "form 10" true (info.Dim_rule.form = Dim_rule.Form10);
    Alcotest.(check bool) "downward" true
      (info.Dim_rule.navigation = Dim_rule.Downward)
  | Error e -> Alcotest.fail e

let test_rule_shared_plain_var_rejected () =
  (* patients joined on the non-categorical attribute: violates (4) *)
  let bad =
    Tgd.make ~name:"bad"
      ~body:
        [ Atom.make "patient_ward" [ v "W"; v "D"; v "P" ];
          Atom.make "patient_unit" [ v "U"; v "D2"; v "P" ] ]
      ~head:[ Atom.make "patient_unit" [ v "U"; v "D"; v "P" ] ]
      ()
  in
  (match Dim_rule.analyze schema bad with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected a form-(4) violation")

let test_rule_unknown_pred_rejected () =
  let bad =
    Tgd.make ~name:"bad2"
      ~body:[ Atom.make "mystery" [ v "X" ] ]
      ~head:[ Atom.make "patient_unit" [ v "U"; v "D"; v "X" ] ]
      ()
  in
  (match Dim_rule.analyze schema bad with
   | Error e ->
     Alcotest.(check bool) "mentions predicate" true
       (String.length e > 0)
   | Ok _ -> Alcotest.fail "expected unknown predicate error")

let test_rule10_level_violation () =
  (* generating data at a *higher* level with an existential: rejected *)
  let bad =
    Tgd.make ~name:"bad10"
      ~body:[ Atom.make "patient_ward" [ v "W"; v "D"; v "P" ] ]
      ~head:
        [ Atom.make "institution_unit" [ v "I"; v "U" ];
          Atom.make "discharge_patients" [ v "I"; v "D"; v "P" ] ]
      ()
  in
  (match Dim_rule.analyze schema bad with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected a form-(10) level violation")

let test_upward_only_detection () =
  Alcotest.(check bool) "rule7 alone is upward-only" true
    (Dim_rule.is_upward_only schema [ Hospital.rule7 ]);
  Alcotest.(check bool) "rule8 is not" false
    (Dim_rule.is_upward_only schema [ Hospital.rule7; Hospital.rule8 ])

(* ------------------------------------------------------------------ *)
(* Md_ontology *)

let test_ontology_instance_facts () =
  let m = Hospital.ontology () in
  let inst = Md_ontology.instance m in
  let card name = R.Relation.cardinal (R.Instance.get inst name) in
  Alcotest.(check int) "ward members" 4 (card "ward");
  Alcotest.(check int) "unit members" 3 (card "unit");
  Alcotest.(check int) "institution members" 2 (card "institution");
  Alcotest.(check int) "unit_ward links" 4 (card "unit_ward");
  Alcotest.(check int) "institution_unit links" 3 (card "institution_unit");
  Alcotest.(check int) "day_time links" 6 (card "day_time");
  Alcotest.(check int) "month_day links" 5 (card "month_day");
  Alcotest.(check bool) "unit_ward content" true
    (R.Relation.mem
       (R.Instance.get inst "unit_ward")
       (R.Tuple.of_list [ sym "Standard"; sym "W1" ]))

let test_ontology_referential_ok () =
  let m = Hospital.ontology () in
  Alcotest.(check int) "no violations" 0
    (List.length (Md_ontology.referential_violations m))

let test_ontology_referential_violation () =
  let data = R.Instance.create () in
  let pw = R.Instance.declare data Hospital.(R.Relation.schema patient_ward) in
  ignore (R.Relation.add pw (R.Tuple.of_list [ sym "W9"; sym "Sep/5"; sym "X" ]));
  let m =
    Md_ontology.make ~schema
      ~dim_instances:
        [ Hospital.hospital_instance; Hospital.time_instance;
          Hospital.device_instance ]
      ~data ()
  in
  match Md_ontology.referential_violations m with
  | [ viol ] ->
    Alcotest.(check string) "relation" "patient_ward" viol.Md_ontology.relation;
    Alcotest.(check int) "position" 0 viol.Md_ontology.position
  | l -> Alcotest.failf "expected 1 violation, got %d" (List.length l)

let test_ontology_classes () =
  let m = Hospital.ontology () in
  let report = Md_ontology.classes m in
  Alcotest.(check bool) "weakly sticky (paper claim)" true
    report.Analysis.weakly_sticky;
  Alcotest.(check bool) "not sticky" false report.Analysis.sticky;
  Alcotest.(check bool) "not linear" false report.Analysis.linear

let test_ontology_separability () =
  let m = Hospital.ontology () in
  Alcotest.(check bool) "EGD (6) separable over categorical positions" true
    (Md_ontology.separability m).Analysis.separable

let test_ontology_chase_saturates () =
  let m = Hospital.ontology () in
  let r = Md_ontology.chase m in
  Alcotest.(check bool) "saturated" true (r.Chase.outcome = Chase.Saturated);
  (* rule 8 invents shift nulls, rule 9 invents unit nulls *)
  Alcotest.(check bool) "nulls invented" true
    (r.Chase.stats.Chase.nulls_created >= 6)

let test_ontology_nc_fails_on_raw () =
  let m = Hospital.ontology ~raw_patient_ward:true () in
  let r = Md_ontology.chase m in
  (match r.Chase.outcome with
   | Chase.Failed (Chase.Nc_violation { nc; _ }) ->
     Alcotest.(check bool) "the intensive-care constraint" true
       (String.length nc.Nc.name > 0)
   | o -> Alcotest.failf "expected NC violation, got %a" Chase.pp_outcome o)

let test_ontology_upward_only () =
  Alcotest.(check bool) "upward fragment" true
    (Md_ontology.is_upward_only (Hospital.upward_ontology ()));
  Alcotest.(check bool) "full ontology not" false
    (Md_ontology.is_upward_only (Hospital.ontology ()))

let patient_unit_query =
  Query.make ~name:"pu" ~head:[ v "U"; v "D" ]
    [ Atom.make "patient_unit" [ v "U"; v "D"; c "Tom Waits" ] ]

let test_ontology_rewrite_agrees_with_chase () =
  let m = Hospital.upward_ontology () in
  let via_chase =
    match answer Answer.Chase m patient_unit_query with
    | Answer.Ok l -> l
    | _ -> Alcotest.fail "chase failed"
  in
  (match answer Answer.Rewrite m patient_unit_query with
   | Answer.Ok via_rw ->
     Alcotest.(check int) "same size" (List.length via_chase)
       (List.length via_rw);
     Alcotest.(check bool) "same answers" true (via_chase = via_rw);
     Alcotest.(check bool) "nonempty" true (via_chase <> [])
   | _ -> Alcotest.fail "rewriting degraded");
  Alcotest.(check bool) "proof agrees too" true
    (answer Answer.Proof m patient_unit_query = Answer.Ok via_chase)

(* ------------------------------------------------------------------ *)
(* Navigation vs rules *)

let test_navigation_rollup_equals_rule7 () =
  let rolled =
    Navigation.rollup Hospital.hospital_instance
      ~relation:Hospital.patient_ward ~position:0 ~to_category:"Unit"
      ~name:"patient_unit" ()
  in
  let m = Hospital.upward_ontology () in
  let r = Md_ontology.chase m in
  Alcotest.(check bool) "chase ok" true (r.Chase.outcome = Chase.Saturated);
  let via_chase = R.Instance.get r.Chase.instance "patient_unit" in
  Alcotest.(check bool) "same tuples" true
    (R.Tuple.Set.equal (R.Relation.to_set rolled) (R.Relation.to_set via_chase))

let test_navigation_drilldown_multiplies () =
  let down =
    Navigation.drilldown Hospital.hospital_instance
      ~relation:Hospital.working_schedules ~position:0 ~to_category:"Ward"
      ~null_positions:[ 3 ] ()
  in
  (* Standard x2 wards x3 rows=... ws rows: Intensive(1 ward), Standard
     Sep/5, Sep/6, Sep/9 (2 wards each), Terminal (1 ward) *)
  Alcotest.(check int) "row count" 8 (R.Relation.cardinal down);
  R.Relation.iter
    (fun t ->
      Alcotest.(check bool) "shift is null" true
        (R.Value.is_null (R.Tuple.get t 3)))
    down

let test_navigation_rollup_drops_unlinked () =
  (* a ward with no unit: its tuples vanish on roll-up *)
  let inst =
    Dim_instance.make hosp
      ~members:
        [ ("Ward", [ "WA"; "WB" ]); ("Unit", [ "U1" ]); ("Institution", [ "H" ]) ]
      ~links:[ ("WA", "U1"); ("U1", "H") ]
  in
  let rel =
    R.Relation.of_tuples Hospital.(R.Relation.schema patient_ward)
      [ R.Tuple.of_list [ sym "WA"; sym "Sep/5"; sym "p" ];
        R.Tuple.of_list [ sym "WB"; sym "Sep/5"; sym "q" ] ]
  in
  let rolled = Navigation.rollup inst ~relation:rel ~position:0 ~to_category:"Unit" () in
  Alcotest.(check int) "only linked ward survives" 1 (R.Relation.cardinal rolled)

(* ------------------------------------------------------------------ *)
(* DOT export (Figure 1) *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_dim_schema_dot () =
  let dot = Dim_schema.to_dot hosp in
  Alcotest.(check bool) "digraph" true (contains ~needle:"digraph" dot);
  Alcotest.(check bool) "roll-up edge" true
    (contains ~needle:"\"Hospital.Ward\" -> \"Hospital.Unit\"" dot)

let test_md_schema_dot () =
  let dot = Md_schema.to_dot schema in
  Alcotest.(check bool) "a Graphviz digraph" true
    (String.starts_with ~prefix:"digraph" dot);
  Alcotest.(check bool) "one cluster per dimension" true
    (contains ~needle:"cluster_Hospital" dot
    && contains ~needle:"cluster_Time" dot
    && contains ~needle:"cluster_Device" dot);
  Alcotest.(check bool) "relation node" true
    (contains ~needle:"\"patient_ward\"" dot);
  Alcotest.(check bool) "attachment edge to Ward" true
    (contains ~needle:"\"patient_ward\" -> \"Hospital.Ward\"" dot)

(* ------------------------------------------------------------------ *)
(* Md_ontology constructor validation *)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let test_ontology_validation () =
  Alcotest.(check bool) "missing dimension instance" true
    (raises_invalid (fun () ->
         Md_ontology.make ~schema
           ~dim_instances:[ Hospital.hospital_instance ]
           ()));
  Alcotest.(check bool) "duplicate dimension instance" true
    (raises_invalid (fun () ->
         Md_ontology.make ~schema
           ~dim_instances:
             [ Hospital.hospital_instance; Hospital.hospital_instance;
               Hospital.time_instance; Hospital.device_instance ]
           ()));
  let bad_data = R.Instance.create () in
  ignore (R.Instance.declare bad_data (R.Rel_schema.of_names "mystery" [ "x" ]));
  Alcotest.(check bool) "undeclared relation in data" true
    (raises_invalid (fun () ->
         Md_ontology.make ~schema
           ~dim_instances:
             [ Hospital.hospital_instance; Hospital.time_instance;
               Hospital.device_instance ]
           ~data:bad_data ()));
  Alcotest.(check bool) "invalid dimensional rule" true
    (raises_invalid (fun () ->
         Md_ontology.make ~schema
           ~dim_instances:
             [ Hospital.hospital_instance; Hospital.time_instance;
               Hospital.device_instance ]
           ~rules:
             [ Tgd.make ~name:"mystery_unit"
                 ~body:[ Atom.make "mystery" [ v "X" ] ]
                 ~head:[ Atom.make "patient_unit" [ v "U"; v "D"; v "X" ] ]
                 () ]
           ()))

(* The first fault raises, and its message names it. *)
let test_ontology_validation_messages () =
  let message f =
    match f () with exception Invalid_argument m -> m | _ -> "accepted"
  in
  let dims =
    [ Hospital.hospital_instance; Hospital.time_instance;
      Hospital.device_instance ]
  in
  let other =
    Dim_instance.make
      (Dim_schema.linear ~name:"Other" [ "Zone" ])
      ~members:[ ("Zone", [ "z" ]) ]
      ~links:[]
  in
  Alcotest.(check string) "stray instance"
    "Md_ontology: instance for an undeclared dimension Other"
    (message (fun () ->
         Md_ontology.make ~schema ~dim_instances:(dims @ [ other ]) ()));
  let short = R.Instance.create () in
  ignore
    (R.Instance.declare short (R.Rel_schema.of_names "patient_ward" [ "x" ]));
  Alcotest.(check string) "arity mismatch"
    "Md_ontology: arity mismatch for relation patient_ward"
    (message (fun () ->
         Md_ontology.make ~schema ~dim_instances:dims ~data:short ()))

(* ------------------------------------------------------------------ *)
(* Aggregate *)

let sales_rel rows =
  let schema =
    R.Rel_schema.make "sales"
      [ R.Attribute.categorical "item" ~dimension:"Hospital" ~category:"Ward";
        R.Attribute.plain "amount" ]
  in
  R.Relation.of_tuples schema
    (List.map
       (fun (w, a) -> R.Tuple.of_list [ sym w; R.Value.real a ])
       rows)

let test_aggregate_sum () =
  let rel = sales_rel [ ("W1", 10.); ("W2", 5.); ("W3", 7.); ("W1", 3.) ] in
  match
    Aggregate.rollup hinst ~relation:rel ~group_position:0 ~to_category:"Unit"
      ~value_position:1 ~op:Aggregate.Sum ()
  with
  | Ok rows ->
    let find u =
      List.find (fun r -> R.Value.equal r.Aggregate.group (sym u)) rows
    in
    Alcotest.(check int) "two groups" 2 (List.length rows);
    Alcotest.(check bool) "standard sum" true
      (abs_float ((find "Standard").Aggregate.value -. 18.) < 1e-9);
    Alcotest.(check bool) "intensive sum" true
      (abs_float ((find "Intensive").Aggregate.value -. 7.) < 1e-9);
    Alcotest.(check int) "tuple counts" 3 (find "Standard").Aggregate.tuples
  | Error e -> Alcotest.fail e

let test_aggregate_ops () =
  let rel = sales_rel [ ("W1", 10.); ("W2", 4.) ] in
  let run op vp =
    match
      Aggregate.rollup hinst ~relation:rel ~group_position:0
        ~to_category:"Unit" ?value_position:vp ~op ()
    with
    | Ok [ r ] -> r.Aggregate.value
    | Ok l -> Alcotest.failf "expected one row, got %d" (List.length l)
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "count" true (run Aggregate.Count None = 2.0);
  Alcotest.(check bool) "avg" true (abs_float (run Aggregate.Avg (Some 1) -. 7.) < 1e-9);
  Alcotest.(check bool) "min" true (run Aggregate.Min (Some 1) = 4.0);
  Alcotest.(check bool) "max" true (run Aggregate.Max (Some 1) = 10.0)

let test_aggregate_guard () =
  let rel_ns =
    let schema =
      R.Rel_schema.make "s2"
        [ R.Attribute.categorical "w" ~dimension:"Hospital" ~category:"Ward";
          R.Attribute.plain "amount" ]
    in
    R.Relation.of_tuples schema
      [ R.Tuple.of_list [ sym "W5"; R.Value.real 6. ] ]
  in
  (match
     Aggregate.rollup non_strict ~relation:rel_ns ~group_position:0
       ~to_category:"Unit" ~value_position:1 ~op:Aggregate.Sum ()
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected summarizability refusal");
  (* forcing double-counts W5's value into both units *)
  (match
     Aggregate.rollup non_strict ~relation:rel_ns ~group_position:0
       ~to_category:"Unit" ~value_position:1 ~op:Aggregate.Sum ~check:false ()
   with
   | Ok rows -> Alcotest.(check int) "two groups from one tuple" 2 (List.length rows)
   | Error e -> Alcotest.fail e)

let test_aggregate_errors () =
  let rel = sales_rel [ ("W1", 10.) ] in
  let expect_error f =
    match f () with Error _ -> () | Ok _ -> Alcotest.fail "expected error"
  in
  expect_error (fun () ->
      Aggregate.rollup hinst ~relation:rel ~group_position:0
        ~to_category:"Unit" ~op:Aggregate.Sum ());
  expect_error (fun () ->
      Aggregate.rollup hinst ~relation:rel ~group_position:5
        ~to_category:"Unit" ~value_position:1 ~op:Aggregate.Sum ());
  expect_error (fun () ->
      (* Unit is not an ancestor of itself *)
      Aggregate.rollup hinst ~relation:rel ~group_position:0
        ~to_category:"Ward" ~value_position:1 ~op:Aggregate.Sum ());
  (* non-numeric value *)
  let rel_bad =
    let schema =
      R.Rel_schema.make "s3"
        [ R.Attribute.categorical "w" ~dimension:"Hospital" ~category:"Ward";
          R.Attribute.plain "amount" ]
    in
    R.Relation.of_tuples schema [ R.Tuple.of_list [ sym "W1"; sym "oops" ] ]
  in
  expect_error (fun () ->
      Aggregate.rollup hinst ~relation:rel_bad ~group_position:0
        ~to_category:"Unit" ~value_position:1 ~op:Aggregate.Sum ())

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_chain_instance =
  (* random 3-level instances: wards 0..n-1, units 0..m-1, random links *)
  QCheck.Gen.(
    let* n_wards = 1 -- 8 in
    let* n_units = 1 -- 4 in
    let* links =
      list_size (return n_wards)
        (map (fun u -> u mod n_units) (0 -- 100))
    in
    let wards = List.init n_wards (Printf.sprintf "w%d") in
    let units = List.init n_units (Printf.sprintf "u%d") in
    let ward_links =
      List.mapi (fun i u -> (Printf.sprintf "w%d" i, Printf.sprintf "u%d" u)) links
    in
    let unit_links = List.map (fun u -> (u, "h0")) units in
    return
      (Dim_instance.make Hospital.hospital_dim
         ~members:
           [ ("Ward", wards); ("Unit", units); ("Institution", [ "h0" ]) ]
         ~links:(ward_links @ unit_links)))

let instance_arb =
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Dim_instance.pp i)
    gen_chain_instance

let prop_rollup_drilldown_galois =
  QCheck.Test.make ~name:"rollup/drilldown adjunction on members" ~count:200
    instance_arb (fun di ->
      (* u ∈ rollup(w) iff w ∈ drilldown(u) *)
      List.for_all
        (fun w ->
          List.for_all
            (fun u ->
              let up = Dim_instance.rollup di w ~to_category:"Unit" in
              let down = Dim_instance.drilldown di u ~to_category:"Ward" in
              List.mem u up = List.mem w down)
            (Dim_instance.members di "Unit"))
        (Dim_instance.members di "Ward"))

let prop_strict_singleton_rollup =
  QCheck.Test.make ~name:"strict instances have functional roll-ups"
    ~count:200 instance_arb (fun di ->
      QCheck.assume (Dim_instance.diagnose di).Dim_instance.strict;
      List.for_all
        (fun w ->
          List.length (Dim_instance.rollup di w ~to_category:"Institution") <= 1)
        (Dim_instance.members di "Ward"))

(* Random instances over the diamond Day -> Week -> Year,
   Day -> Month -> Year.  Each member links to 0-2 parents per parent
   category, so instances are often non-strict and non-covering. *)
let diamond =
  Dim_schema.make ~name:"Cal"
    ~edges:
      [ ("Day", "Week"); ("Week", "Year"); ("Day", "Month");
        ("Month", "Year") ]

(* A diamond declaration in random order: the members shuffled, each
   run of one category's members one group, the links shuffled. *)
let gen_diamond_declaration =
  QCheck.Gen.(
    let* n_days = 1 -- 6 in
    let* n_weeks = 1 -- 3 in
    let* n_months = 1 -- 3 in
    let* n_years = 1 -- 2 in
    let names prefix n = List.init n (Printf.sprintf "%s%d" prefix) in
    let links children prefix n =
      map List.concat
        (flatten_l
           (List.map
              (fun child ->
                map
                  (List.map (fun i -> (child, Printf.sprintf "%s%d" prefix i)))
                  (list_size (0 -- 2) (0 -- (n - 1))))
              children))
    in
    let days = names "d" n_days and weeks = names "w" n_weeks in
    let months = names "m" n_months in
    let* day_weeks = links days "w" n_weeks in
    let* day_months = links days "m" n_months in
    let* week_years = links weeks "y" n_years in
    let* month_years = links months "y" n_years in
    let* order =
      shuffle_l
        (List.concat_map
           (fun (c, ns) -> List.map (fun n -> (c, n)) ns)
           [ ("Day", days); ("Week", weeks); ("Month", months);
             ("Year", names "y" n_years) ])
    in
    let* links =
      shuffle_l (day_weeks @ day_months @ week_years @ month_years)
    in
    let groups =
      List.fold_right
        (fun (c, n) groups ->
          match groups with
          | (c', ns) :: rest when c = c' -> (c, n :: ns) :: rest
          | _ -> (c, [ n ]) :: groups)
        order []
    in
    return (groups, links))

let print_declaration (members, links) =
  String.concat "; "
    (List.map (fun (c, ns) -> c ^ " " ^ String.concat "," ns) members
    @ List.map (fun (a, b) -> a ^ "->" ^ b) links)

let gen_diamond_instance =
  QCheck.Gen.map
    (fun (members, links) -> Dim_instance.make diamond ~members ~links)
    gen_diamond_declaration

(* The reference roll-up: breadth-first search over member_parents. *)
let reference_rollup di m cat =
  let rec go seen = function
    | [] -> seen
    | x :: rest ->
      if List.mem x seen then go seen rest
      else go (x :: seen) (rest @ Dim_instance.member_parents di x)
  in
  go [] (Dim_instance.member_parents di m)
  |> List.filter (fun x -> Dim_instance.category_of di x = Some cat)
  |> List.sort_uniq R.Value.compare

let diamond_members di =
  List.concat_map (Dim_instance.members di) (Dim_schema.categories diamond)

let prop_diamond_closure =
  QCheck.Test.make ~name:"diamond roll-up/drill-down match a reference BFS"
    ~count:200
    (QCheck.make
       ~print:(fun i -> Format.asprintf "%a" Dim_instance.pp i)
       gen_diamond_instance)
    (fun di ->
      List.for_all
        (fun m ->
          List.for_all
            (fun cat ->
              Dim_instance.rollup di m ~to_category:cat
              = reference_rollup di m cat
              && Dim_instance.drilldown di m ~to_category:cat
                 = List.filter
                     (fun d ->
                       List.mem m
                         (reference_rollup di d
                            (Option.get (Dim_instance.category_of di m))))
                     (Dim_instance.members di cat))
            (Dim_schema.categories diamond))
        (diamond_members di))

let prop_diamond_diagnose =
  QCheck.Test.make ~name:"diamond diagnose witnesses match the reference"
    ~count:200
    (QCheck.make
       ~print:(fun i -> Format.asprintf "%a" Dim_instance.pp i)
       gen_diamond_instance)
    (fun di ->
      let expected =
        List.concat_map
          (fun m ->
            let cat = Option.get (Dim_instance.category_of di m) in
            if cat = Dim_schema.all then []
            else
              List.filter_map
                (fun anc ->
                  let ups = reference_rollup di m anc in
                  if List.length ups > 1 then
                    Some
                      (Dim_instance.Non_strict
                         { member = m; category = cat; ancestor_category = anc;
                           ancestors = ups })
                  else None)
                (Dim_schema.ancestors diamond cat)
              @ List.filter_map
                  (fun pcat ->
                    if
                      List.exists
                        (fun p -> Dim_instance.category_of di p = Some pcat)
                        (Dim_instance.member_parents di m)
                    then None
                    else
                      Some
                        (Dim_instance.Non_covering
                           { member = m; category = cat;
                             parent_category = pcat }))
                  (Dim_schema.parents diamond cat))
          (diamond_members di)
      in
      let r = Dim_instance.diagnose di in
      r.violations = expected
      && r.strict
         = not
             (List.exists
                (function Dim_instance.Non_strict _ -> true | _ -> false)
                expected)
      && r.homogeneous
         = not
             (List.exists
                (function Dim_instance.Non_covering _ -> true | _ -> false)
                expected))

(* The closure of a declaration by naive fixpoint, without the
   instance: each member's category, its parents by name ([all] for
   members of categories under All) and every member it reaches. *)
let naive_closure (members, links) =
  let category =
    ("all", Dim_schema.all)
    :: List.concat_map (fun (c, ns) -> List.map (fun n -> (n, c)) ns) members
  in
  let parents m =
    List.sort_uniq String.compare
      ((if List.mem Dim_schema.all
             (Dim_schema.parents diamond (List.assoc m category))
        then [ "all" ]
        else [])
      @ List.filter_map (fun (c, p) -> if c = m then Some p else None) links)
  in
  let rec fix reach =
    let next =
      List.map
        (fun (m, _) ->
          ( m,
            List.sort_uniq String.compare
              (List.concat_map (fun p -> p :: List.assoc p reach) (parents m))
          ))
        category
    in
    if next = reach then reach else fix next
  in
  (category, parents, fix (List.map (fun (m, _) -> (m, [])) category))

let prop_diamond_naive =
  QCheck.Test.make
    ~name:"shuffled diamond declarations match a naive fixpoint" ~count:200
    (QCheck.make ~print:print_declaration gen_diamond_declaration)
    (fun ((members, links) as declaration) ->
      let di = Dim_instance.make diamond ~members ~links in
      let category, parents, reach = naive_closure declaration in
      let syms = List.map sym and cats = Dim_schema.categories diamond in
      let within c = List.filter (fun n -> List.assoc n category = c) in
      let members_of c =
        List.sort String.compare (within c (List.map fst category))
      in
      let rollup m c = within c (List.assoc m reach) in
      let drilldown m c =
        List.filter (fun d -> List.mem m (List.assoc d reach)) (members_of c)
      in
      let violations =
        List.concat_map
          (fun c ->
            List.concat_map
              (fun m ->
                List.filter_map
                  (fun a ->
                    match rollup m a with
                    | _ :: _ :: _ as ups ->
                      Some
                        (Dim_instance.Non_strict
                           { member = sym m; category = c;
                             ancestor_category = a; ancestors = syms ups })
                    | _ -> None)
                  (Dim_schema.ancestors diamond c)
                @ List.filter_map
                    (fun pc ->
                      if within pc (parents m) = [] then
                        Some
                          (Dim_instance.Non_covering
                             { member = sym m; category = c;
                               parent_category = pc })
                      else None)
                    (Dim_schema.parents diamond c))
              (members_of c))
          cats
      in
      let r = Dim_instance.diagnose di in
      List.for_all
        (fun c -> Dim_instance.members di c = syms (members_of c))
        cats
      && List.for_all
           (fun (m, c) ->
             let v = sym m in
             Dim_instance.category_of di v = Some c
             && Dim_instance.member_parents di v = syms (parents m)
             && List.for_all
                  (fun c' ->
                    Dim_instance.rollup di v ~to_category:c'
                    = syms (rollup m c')
                    && Dim_instance.drilldown di v ~to_category:c'
                       = syms (drilldown m c'))
                  cats)
           category
      && Dim_instance.category_of di (sym "d") = None
      && Dim_instance.member_parents di (R.Value.int 0) = []
      && r.violations = violations
      && r.strict
         = List.for_all
             (function Dim_instance.Non_strict _ -> false | _ -> true)
             violations
      && r.homogeneous
         = List.for_all
             (function Dim_instance.Non_covering _ -> false | _ -> true)
             violations)

(* [Md_ontology.instance] against its facts added one at a time: each
   member of each category, then each link along each schema edge below
   All, found through the public accessors. *)
let instance_by_adds (o : Md_ontology.t) =
  let inst = R.Instance.copy o.Md_ontology.data in
  List.iter
    (fun rs -> ignore (R.Instance.declare inst rs))
    (Md_schema.relations o.schema);
  let adder pred attributes =
    let r = R.Instance.declare inst (R.Rel_schema.of_names pred attributes) in
    fun t -> ignore (R.Relation.add r (R.Tuple.of_list t))
  in
  List.iter
    (fun di ->
      let ds = Dim_instance.schema di in
      List.iter
        (fun c ->
          if c <> Dim_schema.all then
            let add = adder (Md_schema.category_pred c) [ "member" ] in
            List.iter (fun m -> add [ m ]) (Dim_instance.members di c))
        (Dim_schema.categories ds);
      List.iter
        (fun (child, parent) ->
          if parent <> Dim_schema.all then
            let add =
              adder
                (Md_schema.parent_child_pred ~parent ~child)
                [ "parent"; "child" ]
            in
            List.iter
              (fun m ->
                List.iter
                  (fun p ->
                    if Dim_instance.category_of di p = Some parent then
                      add [ p; m ])
                  (Dim_instance.member_parents di m))
              (Dim_instance.members di child))
        (Dim_schema.edges ds))
    o.dim_instances;
  inst

let same_instance a b =
  let rels i =
    List.map
      (fun r ->
        (R.Relation.name r, R.Relation.cardinal r, R.Relation.to_list r))
      (R.Instance.relations i)
  in
  rels a = rels b

let test_ontology_instance_bulk () =
  List.iter
    (fun (name, o) ->
      Alcotest.(check bool) name true
        (same_instance (Md_ontology.instance o) (instance_by_adds o)))
    [ ("hospital", Hospital.ontology ());
      ("telecom", Mdqa_telecom.Telecom.ontology ());
      ("scaled hospital", Hospital.Gen.ontology (Hospital.Gen.scale 4)) ]

let prop_diamond_ontology_instance =
  QCheck.Test.make ~name:"diamond ontology instance = one add per fact"
    ~count:100
    (QCheck.make
       ~print:(fun i -> Format.asprintf "%a" Dim_instance.pp i)
       gen_diamond_instance)
    (fun di ->
      let o =
        Md_ontology.make
          ~schema:(Md_schema.make ~dimensions:[ diamond ] ~relations:[])
          ~dim_instances:[ di ] ()
      in
      same_instance (Md_ontology.instance o) (instance_by_adds o))

(* grand-total invariant: when the ward->unit roll-up is summarizable,
   the per-unit sums add up to the plain total *)
let prop_aggregate_partition =
  QCheck.Test.make ~name:"checked Sum roll-up partitions the total"
    ~count:200
    (QCheck.pair instance_arb
       (QCheck.small_list (QCheck.make QCheck.Gen.(pair (0 -- 7) (0 -- 50)))))
    (fun (di, rows) ->
      let wards = Dim_instance.members di "Ward" in
      QCheck.assume (wards <> []);
      let rel =
        let schema =
          R.Rel_schema.make "sales"
            [ R.Attribute.categorical "w" ~dimension:"Hospital"
                ~category:"Ward";
              R.Attribute.plain "amount" ]
        in
        R.Relation.of_tuples schema
          (List.mapi
             (fun i (w, a) ->
               R.Tuple.of_list
                 [ List.nth wards (w mod List.length wards);
                   (* make tuples distinct so none collapse *)
                   R.Value.real (float_of_int ((a * 100) + i)) ])
             rows)
      in
      match
        Aggregate.rollup di ~relation:rel ~group_position:0
          ~to_category:"Unit" ~value_position:1 ~op:Aggregate.Sum ()
      with
      | Error _ -> QCheck.assume_fail ()  (* not summarizable: skip *)
      | Ok groups ->
        let total_direct =
          R.Relation.fold
            (fun t acc ->
              match R.Tuple.get t 1 with
              | R.Value.Real x -> acc +. x
              | _ -> acc)
            rel 0.0
        in
        let total_grouped =
          List.fold_left (fun acc r -> acc +. r.Aggregate.value) 0.0 groups
        in
        abs_float (total_direct -. total_grouped) < 1e-6)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_rollup_drilldown_galois; prop_strict_singleton_rollup;
      prop_diamond_closure; prop_diamond_diagnose; prop_diamond_naive;
      prop_diamond_ontology_instance; prop_aggregate_partition ]

let case name f = Alcotest.test_case name `Quick f

let suites =
  [ ( "multidim.schema",
      [ case "levels" test_schema_levels;
        case "parents/children/ancestors" test_schema_relatives;
        case "paths" test_schema_paths;
        case "non-linear DAG" test_schema_dag;
        case "cycle rejected" test_schema_cycle_rejected;
        case "All as child rejected" test_schema_all_not_child ] );
    ( "multidim.instance",
      [ case "members and categories" test_instance_members;
        case "roll-up" test_instance_rollup;
        case "drill-down" test_instance_drilldown;
        case "strictness/homogeneity" test_instance_strict_homogeneous;
        case "bad links rejected" test_instance_bad_links;
        case "problems name their item" test_instance_problems ] );
    ( "multidim.summarizability",
      [ case "non-strict diagnosis" test_summarizability_non_strict;
        case "non-covering diagnosis" test_summarizability_non_covering ] );
    ( "multidim.md_schema",
      [ case "predicate naming" test_md_schema_naming;
        case "position kinds" test_md_schema_position_kinds;
        case "categorical positions" test_md_schema_categorical_positions;
        case "validation" test_md_schema_validation;
        case "conflicts carry their kind" test_md_schema_conflict_kinds;
        case "kind ignores names in the text" test_md_schema_kind_not_from_text;
        case "check builds the predicate inverses" test_md_schema_check_tables
      ] );
    ( "multidim.dim_rule",
      [ case "rule (7): form 4 upward" test_rule7_analysis;
        case "rule (8): form 4 downward" test_rule8_analysis;
        case "rule (9): form 10 downward" test_rule9_analysis;
        case "shared plain variable rejected" test_rule_shared_plain_var_rejected;
        case "unknown predicate rejected" test_rule_unknown_pred_rejected;
        case "form 10 level violation" test_rule10_level_violation;
        case "upward-only detection" test_upward_only_detection ] );
    ( "multidim.ontology",
      [ case "compiled instance facts" test_ontology_instance_facts;
        case "bulk-built instance = one add per fact"
          test_ontology_instance_bulk;
        case "referential constraints hold" test_ontology_referential_ok;
        case "referential violation detected" test_ontology_referential_violation;
        case "class report: weakly sticky" test_ontology_classes;
        case "EGD separability" test_ontology_separability;
        case "chase saturates with nulls" test_ontology_chase_saturates;
        case "closed-unit NC fires on raw data" test_ontology_nc_fails_on_raw;
        case "upward-only fragment detection" test_ontology_upward_only;
        case "rewrite/proof/chase agree" test_ontology_rewrite_agrees_with_chase
      ] );
    ( "multidim.dot",
      [ case "dimension DAG export" test_dim_schema_dot;
        case "Figure 1 export" test_md_schema_dot ] );
    ( "multidim.validation",
      [ case "ontology constructor errors" test_ontology_validation;
        case "ontology errors name their fault"
          test_ontology_validation_messages ] );
    ( "multidim.aggregate",
      [ case "sum by unit" test_aggregate_sum;
        case "count/avg/min/max" test_aggregate_ops;
        case "summarizability guard" test_aggregate_guard;
        case "error conditions" test_aggregate_errors ] );
    ( "multidim.navigation",
      [ case "rollup = rule (7) chase" test_navigation_rollup_equals_rule7;
        case "drilldown multiplies with nulls" test_navigation_drilldown_multiplies;
        case "rollup drops unlinked members" test_navigation_rollup_drops_unlinked
      ] );
    ("multidim.properties", qcheck_cases) ]
