open Mdqa_multidim
open Mdqa_datalog
module R = Mdqa_relational

let v = Term.var
let c s = Term.Const (R.Value.sym s)
let sym = R.Value.sym
let tuple_syms l = R.Tuple.of_list (List.map sym l)

(* ------------------------------------------------------------------ *)
(* Dimensions *)

let network_dim = Dim_schema.linear ~name:"Network" [ "Cell"; "Tower"; "Region" ]

(* the Calendar DAG: Day rolls up through Weeks and through Months *)
let calendar_dim =
  Dim_schema.make ~name:"Calendar"
    ~edges:
      [ ("Day", "Week"); ("Day", "Month"); ("Week", "Year"); ("Month", "Year") ]

let cells = List.init 8 (fun i -> Printf.sprintf "c%d" (i + 1))
let towers = List.init 4 (fun i -> Printf.sprintf "t%d" (i + 1))

let network_instance =
  Dim_instance.make network_dim
    ~members:
      [ ("Cell", cells); ("Tower", towers); ("Region", [ "north"; "south" ]) ]
    ~links:
      (List.mapi
         (fun i cell -> (cell, Printf.sprintf "t%d" ((i / 2) + 1)))
         cells
      @ [ ("t1", "north"); ("t2", "north"); ("t3", "south"); ("t4", "south") ])

let day_name i = Printf.sprintf "d%02d" i
let days = List.init 28 (fun i -> day_name (i + 1))
let week_of i = Printf.sprintf "w%d" (((i - 1) / 7) + 1)
let month_of i = Printf.sprintf "m%d" (((i - 1) / 14) + 1)

let calendar_instance =
  Dim_instance.make calendar_dim
    ~members:
      [ ("Day", days); ("Week", [ "w1"; "w2"; "w3"; "w4" ]);
        ("Month", [ "m1"; "m2" ]); ("Year", [ "y1" ]) ]
    ~links:
      (List.concat
         (List.mapi
            (fun i d -> [ (d, week_of (i + 1)); (d, month_of (i + 1)) ])
            days)
      @ [ ("w1", "y1"); ("w2", "y1"); ("w3", "y1"); ("w4", "y1");
          ("m1", "y1"); ("m2", "y1") ])

(* ------------------------------------------------------------------ *)
(* Categorical relations *)

let cat = R.Attribute.categorical
let plain = R.Attribute.plain

let tower_checked_schema =
  R.Rel_schema.make "tower_checked"
    [ cat "tower" ~dimension:"Network" ~category:"Tower";
      cat "week" ~dimension:"Calendar" ~category:"Week";
      plain "crew" ]

let cell_checked_schema =
  R.Rel_schema.make "cell_checked"
    [ cat "cell" ~dimension:"Network" ~category:"Cell";
      cat "day" ~dimension:"Calendar" ~category:"Day" ]

let cdr_fact_schema =
  R.Rel_schema.make "cdr_fact"
    [ cat "cell" ~dimension:"Network" ~category:"Cell";
      cat "day" ~dimension:"Calendar" ~category:"Day";
      plain "caller"; plain "duration" ]

let region_activity_schema =
  R.Rel_schema.make "region_activity"
    [ cat "region" ~dimension:"Network" ~category:"Region";
      cat "month" ~dimension:"Calendar" ~category:"Month" ]

let md_schema =
  Md_schema.make
    ~dimensions:[ network_dim; calendar_dim ]
    ~relations:
      [ tower_checked_schema; cell_checked_schema; cdr_fact_schema;
        region_activity_schema ]

let tower_checked =
  R.Relation.of_tuples tower_checked_schema
    (List.map tuple_syms
       [ [ "t1"; "w1"; "crewA" ]; [ "t2"; "w2"; "crewB" ];
         [ "t1"; "w3"; "crewA" ]; [ "t3"; "w1"; "crewC" ] ])

let cdr_schema =
  R.Rel_schema.of_names "cdr" [ "day"; "caller"; "cell"; "duration" ]

let cdr_rows =
  [ ("d03", "alice", "c1", 120);  (* t1 / w1 checked -> quality *)
    ("d10", "alice", "c3", 45);   (* t2 / w2 checked -> quality *)
    ("d10", "alice", "c5", 30);   (* t3 checked only in w1 -> out *)
    ("d17", "bob", "c2", 60);     (* t1 / w3 checked -> quality *)
    ("d22", "bob", "c4", 90);     (* t2 / w4 not checked -> out *)
    ("d05", "carol", "c7", 15) ]  (* t4 never checked -> out *)

let expected_quality_days = [ "d03"; "d10"; "d17" ]

let cdr_tuple (d, caller, cell, dur) =
  R.Tuple.of_list [ sym d; sym caller; sym cell; R.Value.int dur ]

let cdr = R.Relation.of_tuples cdr_schema (List.map cdr_tuple cdr_rows)

let cdr_bad_region =
  R.Relation.of_tuples cdr_schema
    (List.map cdr_tuple (cdr_rows @ [ ("d20", "dave", "c7", 200) ]))

(* ------------------------------------------------------------------ *)
(* Rules and constraints *)

(* downward on both dimensions: a weekly tower inspection covers every
   cell of the tower on every day of the week *)
let rule_cell_checked =
  Tgd.make ~name:"cell_checked_down"
    ~body:
      [ Atom.make "tower_checked" [ v "TW"; v "WK"; v "CREW" ];
        Atom.make "tower_cell" [ v "TW"; v "C" ];
        Atom.make "week_day" [ v "WK"; v "D" ] ]
    ~head:[ Atom.make "cell_checked" [ v "C"; v "D" ] ]
    ()

(* upward on both dimensions: traffic aggregates at (Region, Month) *)
let rule_region_activity =
  Tgd.make ~name:"region_activity_up"
    ~body:
      [ Atom.make "cdr_fact" [ v "C"; v "D"; v "CALLER"; v "DUR" ];
        Atom.make "tower_cell" [ v "TW"; v "C" ];
        Atom.make "region_tower" [ v "R"; v "TW" ];
        Atom.make "month_day" [ v "M"; v "D" ] ]
    ~head:[ Atom.make "region_activity" [ v "R"; v "M" ] ]
    ()

let egd_one_crew =
  Egd.make ~name:"egd_one_crew"
    ~body:
      [ Atom.make "tower_checked" [ v "TW"; v "WK"; v "C1" ];
        Atom.make "tower_checked" [ v "TW"; v "WK"; v "C2" ] ]
    (v "C1") (v "C2")

let nc_south_decommissioned =
  Nc.make ~name:"nc_south_decommissioned"
    [ Atom.make "cdr_fact" [ v "C"; v "D"; v "CALLER"; v "DUR" ];
      Atom.make "tower_cell" [ v "TW"; v "C" ];
      Atom.make "region_tower" [ c "south"; v "TW" ];
      Atom.make "month_day" [ c "m2"; v "D" ] ]

(* ------------------------------------------------------------------ *)
(* Ontology, context *)

let ontology ?(bad_region = false) () =
  ignore bad_region;
  let data = R.Instance.of_relations [ R.Relation.copy tower_checked ] in
  Md_ontology.make ~schema:md_schema
    ~dim_instances:[ network_instance; calendar_instance ]
    ~data
    ~rules:[ rule_cell_checked; rule_region_activity ]
    ~egds:[ egd_one_crew ]
    ~ncs:[ nc_south_decommissioned ]
    ()

let source ?(bad_region = false) () =
  R.Instance.of_relations
    [ R.Relation.copy (if bad_region then cdr_bad_region else cdr) ]

let context ?bad_region () =
  Mdqa_context.Context.make
    ~ontology:(ontology ?bad_region ())
    ~mappings:[ { Mdqa_context.Context.source = "cdr"; target = "cdr_c" } ]
    ~rules:
      [ (* place the mapped copy into the cube as a categorical relation *)
        Tgd.make ~name:"cdr_into_cube"
          ~body:[ Atom.make "cdr_c" [ v "D"; v "CALLER"; v "C"; v "DUR" ] ]
          ~head:[ Atom.make "cdr_fact" [ v "C"; v "D"; v "CALLER"; v "DUR" ] ]
          ();
        Tgd.make ~name:"cdr_q"
          ~body:
            [ Atom.make "cdr_c" [ v "D"; v "CALLER"; v "C"; v "DUR" ];
              Atom.make "cell_checked" [ v "C"; v "D" ] ]
          ~head:[ Atom.make "cdr_q" [ v "D"; v "CALLER"; v "C"; v "DUR" ] ]
          () ]
    ~quality_versions:[ ("cdr", "cdr_q") ]
    ()

let caller_query =
  Query.make ~name:"alice_week2"
    ~cmps:
      [ Atom.Cmp.make Atom.Cmp.Ge (v "D") (c "d08");
        Atom.Cmp.make Atom.Cmp.Le (v "D") (c "d14") ]
    ~head:[ v "D"; v "C" ]
    [ Atom.make "cdr" [ v "D"; c "alice"; v "C"; v "DUR" ] ]
