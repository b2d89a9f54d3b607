(* The depot scenario from doc/TUTORIAL.md, compiled and asserted —
   keeps the tutorial's API usage honest. *)

open Mdqa_multidim
open Mdqa_datalog
module R = Mdqa_relational
module Context = Mdqa_context.Context

let v = Term.var

let site_dim = Dim_schema.linear ~name:"Site" [ "Scanner"; "Depot"; "Hub" ]
let week_dim = Dim_schema.linear ~name:"Cal" [ "Day"; "Week" ]

let site_inst =
  Dim_instance.make site_dim
    ~members:
      [ ("Scanner", [ "sc1"; "sc2"; "sc3" ]); ("Depot", [ "d1"; "d2" ]);
        ("Hub", [ "h1" ]) ]
    ~links:
      [ ("sc1", "d1"); ("sc2", "d1"); ("sc3", "d2"); ("d1", "h1");
        ("d2", "h1") ]

let cal_inst =
  Dim_instance.make week_dim
    ~members:
      [ ("Day", [ "day1"; "day2"; "day8" ]); ("Week", [ "wk1"; "wk2" ]) ]
    ~links:[ ("day1", "wk1"); ("day2", "wk1"); ("day8", "wk2") ]

let audit_schema =
  R.Rel_schema.make "depot_audit"
    [ R.Attribute.categorical "depot" ~dimension:"Site" ~category:"Depot";
      R.Attribute.categorical "week" ~dimension:"Cal" ~category:"Week";
      R.Attribute.plain "result" ]

let scanner_ok_schema =
  R.Rel_schema.make "scanner_ok"
    [ R.Attribute.categorical "scanner" ~dimension:"Site" ~category:"Scanner";
      R.Attribute.categorical "day" ~dimension:"Cal" ~category:"Day" ]

let md_schema =
  Md_schema.make ~dimensions:[ site_dim; week_dim ]
    ~relations:[ audit_schema; scanner_ok_schema ]

let rule_ok =
  Tgd.make ~name:"scanner_ok_down"
    ~body:
      [ Atom.make "depot_audit" [ v "DP"; v "WK"; Term.sym "pass" ];
        Atom.make "depot_scanner" [ v "DP"; v "SC" ];
        Atom.make "week_day" [ v "WK"; v "D" ] ]
    ~head:[ Atom.make "scanner_ok" [ v "SC"; v "D" ] ]
    ()

let ontology () =
  let data = R.Instance.create () in
  let audits = R.Instance.declare data audit_schema in
  ignore
    (R.Relation.add audits
       (R.Tuple.of_list
          [ R.Value.sym "d1"; R.Value.sym "wk1"; R.Value.sym "pass" ]));
  Md_ontology.make ~schema:md_schema ~dim_instances:[ site_inst; cal_inst ]
    ~data ~rules:[ rule_ok ] ()

let source () =
  let inst = R.Instance.create () in
  let scans =
    R.Instance.declare inst
      (R.Rel_schema.of_names "scans" [ "day"; "package"; "scanner" ])
  in
  List.iter
    (fun (d, p, sc) ->
      ignore
        (R.Relation.add scans
           (R.Tuple.of_list [ R.Value.sym d; R.Value.sym p; R.Value.sym sc ])))
    [ ("day1", "pkg7", "sc1"); ("day2", "pkg8", "sc3"); ("day8", "pkg9", "sc1") ];
  inst

let context () =
  Context.make ~ontology:(ontology ())
    ~mappings:[ { Context.source = "scans"; target = "scans_c" } ]
    ~rules:
      [ Tgd.make ~name:"scans_q"
          ~body:
            [ Atom.make "scans_c" [ v "D"; v "P"; v "SC" ];
              Atom.make "scanner_ok" [ v "SC"; v "D" ] ]
          ~head:[ Atom.make "scans_q" [ v "D"; v "P"; v "SC" ] ]
          () ]
    ~quality_versions:[ ("scans", "scans_q") ]
    ()

let test_tutorial_pipeline () =
  let assessment = Context.assess ~provenance:true (context ()) ~source:(source ()) in
  (* S^q: only pkg7's scan qualifies, as the tutorial states *)
  (match Context.quality_version assessment "scans" with
   | Some q ->
     Alcotest.(check int) "one quality scan" 1 (R.Relation.cardinal q);
     Alcotest.(check bool) "it is pkg7's" true
       (R.Relation.mem q
          (R.Tuple.of_list
             [ R.Value.sym "day1"; R.Value.sym "pkg7"; R.Value.sym "sc1" ]))
   | None -> Alcotest.fail "no quality version");
  (* clean answers over the original schema *)
  let q =
    Query.make ~head:[ v "P" ] [ Atom.make "scans" [ v "D"; v "P"; v "SC" ] ]
  in
  (match Context.clean_answers assessment q with
   | Some [ t ] ->
     Alcotest.(check bool) "pkg7" true
       (R.Tuple.equal t (R.Tuple.of_list [ R.Value.sym "pkg7" ]))
   | _ -> Alcotest.fail "expected exactly pkg7");
  (* the explanation bottoms out in the audit and the scan *)
  (match
     Context.explain assessment "scans"
       (R.Tuple.of_list
          [ R.Value.sym "day1"; R.Value.sym "pkg7"; R.Value.sym "sc1" ])
   with
   | Ok tree ->
     Alcotest.(check bool) "rests on the audit" true
       (List.exists
          (fun (p, _) -> p = "depot_audit")
          (Explain.extensional_support tree))
   | Error e -> Alcotest.fail e);
  (* incremental extension with a new scan *)
  let a' =
    Context.assess_incremental assessment
      ~added:
        [ ("scans",
           R.Tuple.of_list
             [ R.Value.sym "day2"; R.Value.sym "pkg10"; R.Value.sym "sc1" ]) ]
  in
  match Context.quality_version a' "scans" with
  | Some q -> Alcotest.(check int) "pkg10 joins (sc1/day2 covered)" 2 (R.Relation.cardinal q)
  | None -> Alcotest.fail "no quality version after increment"

let test_tutorial_rule_analysis () =
  match Dim_rule.analyze md_schema rule_ok with
  | Ok info ->
    Alcotest.(check bool) "form 4" true (info.Dim_rule.form = Dim_rule.Form4);
    Alcotest.(check bool) "downward" true
      (info.Dim_rule.navigation = Dim_rule.Downward);
    Alcotest.(check (list string)) "both dimensions" [ "Cal"; "Site" ]
      info.Dim_rule.dimensions
  | Error e -> Alcotest.fail e

(* Two mappings from one source, or two quality versions of one
   relation, are rejected with the name at fault. *)
let test_context_duplicates () =
  let message f =
    match f () with exception Invalid_argument m -> m | _ -> "accepted"
  in
  Alcotest.(check string) "mapping source"
    "Context: duplicate mapping source scans"
    (message (fun () ->
         Context.make ~ontology:(ontology ())
           ~mappings:
             [ { Context.source = "scans"; target = "scans_c" };
               { Context.source = "scans"; target = "scans_d" } ]
           ()));
  Alcotest.(check string) "quality version"
    "Context: duplicate quality version scans"
    (message (fun () ->
         Context.make ~ontology:(ontology ())
           ~quality_versions:[ ("scans", "scans_q"); ("scans", "scans_r") ]
           ()))

let suites =
  [ ( "tutorial.depot",
      [ Alcotest.test_case "pipeline as documented" `Quick
          test_tutorial_pipeline;
        Alcotest.test_case "rule analysis as documented" `Quick
          test_tutorial_rule_analysis;
        Alcotest.test_case "duplicate wiring rejected" `Quick
          test_context_duplicates ] ) ]
