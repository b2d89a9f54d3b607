(* OLAP-style example: sales cube quality with summarizability checks.

   A retailer aggregates [sales] by product category and by city.  Data
   quality has three dimensional facets here:

   - {e summarizability} (Hurtado–Mendelzon): an item classified under
     two categories double-counts in category totals — diagnosed before
     aggregation;
   - an {e EGD} dimensional constraint: all stores of a city apply one
     tax rate — and the two separability criteria are compared on it;
   - an {e inter-dimensional negative constraint}: recalled items must
     not be sold in Berlin stores (Product × Geography, like the
     paper's Hospital × Time constraint);
   - a {e quality context}: only sales from audited cities count, where
     audits are recorded at the City level and propagate down to
     stores by dimensional navigation.

   Run with: dune exec examples/sales_olap.exe *)

open Mdqa_multidim
open Mdqa_datalog
module Context = Mdqa_context.Context
module Assessment = Mdqa_context.Assessment
module R = Mdqa_relational

let v = Term.var
let c s = Term.Const (R.Value.sym s)
let sym = R.Value.sym
let tuple_syms l = R.Tuple.of_list (List.map sym l)
let section title = Printf.printf "\n=== %s ===\n\n" title

(* --- dimensions ------------------------------------------------------ *)

let product_dim = Dim_schema.linear ~name:"Product" [ "Item"; "Category"; "Department" ]
let geo_dim = Dim_schema.linear ~name:"Geography" [ "Store"; "City"; "Country" ]

let items = [ "lamp"; "couch"; "laptop"; "phone"; "heater"; "kettle" ]

(* [heater] is deliberately classified under two categories. *)
let product_links_bad =
  [ ("lamp", "home"); ("couch", "home"); ("kettle", "home");
    ("laptop", "electronics"); ("phone", "electronics");
    ("heater", "home"); ("heater", "electronics");
    ("home", "retail"); ("electronics", "retail") ]

let product_links_fixed =
  List.filter (fun l -> l <> ("heater", "electronics")) product_links_bad

let product_instance links =
  Dim_instance.make product_dim
    ~members:
      [ ("Item", items); ("Category", [ "home"; "electronics" ]);
        ("Department", [ "retail" ]) ]
    ~links

let geo_instance =
  Dim_instance.make geo_dim
    ~members:
      [ ("Store", [ "s1"; "s2"; "s3"; "s4" ]);
        ("City", [ "berlin"; "paris" ]); ("Country", [ "de"; "fr" ]) ]
    ~links:
      [ ("s1", "berlin"); ("s2", "berlin"); ("s3", "paris"); ("s4", "paris");
        ("berlin", "de"); ("paris", "fr") ]

(* --- categorical relations ------------------------------------------- *)

let cat = R.Attribute.categorical
let plain = R.Attribute.plain

let sales_cat_schema =
  R.Rel_schema.make "sales_fact"
    [ cat "item" ~dimension:"Product" ~category:"Item";
      cat "store" ~dimension:"Geography" ~category:"Store";
      plain "amount" ]

let audit_log_schema =
  R.Rel_schema.make "audit_log"
    [ cat "city" ~dimension:"Geography" ~category:"City"; plain "auditor" ]

let store_audited_schema =
  R.Rel_schema.make "store_audited"
    [ cat "store" ~dimension:"Geography" ~category:"Store" ]

let store_tax_schema =
  R.Rel_schema.make "store_tax"
    [ cat "store" ~dimension:"Geography" ~category:"Store"; plain "rate" ]

let recalled_schema =
  R.Rel_schema.make "recalled"
    [ cat "item" ~dimension:"Product" ~category:"Item" ]

let md_schema =
  Md_schema.make ~dimensions:[ product_dim; geo_dim ]
    ~relations:
      [ sales_cat_schema; audit_log_schema; store_audited_schema;
        store_tax_schema; recalled_schema ]

let audit_log =
  R.Relation.of_tuples audit_log_schema
    (List.map tuple_syms [ [ "berlin"; "alice" ] ])

let store_tax =
  R.Relation.of_tuples store_tax_schema
    [ R.Tuple.of_list [ sym "s1"; R.Value.real 0.19 ];
      R.Tuple.of_list [ sym "s2"; R.Value.real 0.19 ];
      R.Tuple.of_list [ sym "s3"; R.Value.real 0.20 ] ]

let recalled =
  R.Relation.of_tuples recalled_schema (List.map tuple_syms [ [ "kettle" ] ])

(* --- rules and constraints ------------------------------------------- *)

(* audits recorded at City level propagate down to every store *)
let rule_audit_down =
  Tgd.make ~name:"store_audited_down"
    ~body:
      [ Atom.make "audit_log" [ v "C"; v "A" ];
        Atom.make "city_store" [ v "C"; v "S" ] ]
    ~head:[ Atom.make "store_audited" [ v "S" ] ]
    ()

(* one tax rate per city *)
let egd_tax =
  Egd.make ~name:"egd_city_tax"
    ~body:
      [ Atom.make "store_tax" [ v "S1"; v "R1" ];
        Atom.make "store_tax" [ v "S2"; v "R2" ];
        Atom.make "city_store" [ v "C"; v "S1" ];
        Atom.make "city_store" [ v "C"; v "S2" ] ]
    (v "R1") (v "R2")

(* recalled items are not sold in Berlin (inter-dimensional NC) *)
let nc_recall =
  Nc.make ~name:"nc_recall_berlin"
    [ Atom.make "sales_fact" [ v "I"; v "S"; v "A" ];
      Atom.make "recalled" [ v "I" ];
      Atom.make "city_store" [ c "berlin"; v "S" ] ]

let sales_rows =
  [ ("lamp", "s1", 40.0); ("couch", "s1", 900.0); ("laptop", "s2", 1200.0);
    ("heater", "s2", 80.0); ("phone", "s3", 700.0); ("kettle", "s3", 25.0);
    ("lamp", "s4", 42.0) ]

let sales_relation schema_name =
  let schema =
    R.Rel_schema.of_names schema_name [ "item"; "store"; "amount" ]
  in
  R.Relation.of_tuples schema
    (List.map
       (fun (i, s, a) -> R.Tuple.of_list [ sym i; sym s; R.Value.real a ])
       sales_rows)

let ontology product_inst =
  let data = R.Instance.create () in
  let add rel =
    let r = R.Instance.declare data (R.Relation.schema rel) in
    R.Relation.iter (fun t -> ignore (R.Relation.add r t)) rel
  in
  add audit_log;
  add store_tax;
  add recalled;
  Md_ontology.make ~schema:md_schema
    ~dim_instances:[ product_inst; geo_instance ]
    ~data ~rules:[ rule_audit_down ] ~egds:[ egd_tax ] ~ncs:[ nc_recall ] ()

let source () =
  let inst = R.Instance.create () in
  let r = R.Instance.declare inst (R.Relation.schema (sales_relation "sales")) in
  R.Relation.iter (fun t -> ignore (R.Relation.add r t)) (sales_relation "sales");
  inst

let context product_inst =
  Context.make ~ontology:(ontology product_inst)
    ~mappings:[ { Context.source = "sales"; target = "sales_c" } ]
    ~rules:
      [ Tgd.make ~name:"sales_q"
          ~body:
            [ Atom.make "sales_c" [ v "I"; v "S"; v "A" ];
              Atom.make "store_audited" [ v "S" ] ]
          ~head:[ Atom.make "sales_q" [ v "I"; v "S"; v "A" ] ]
          () ]
    ~quality_versions:[ ("sales", "sales_q") ]
    ()

(* aggregate a sales relation by rolling items up to Category, via the
   summarizability-guarded Aggregate module *)
let totals_by_category ?check product_inst rel =
  Aggregate.rollup product_inst ~relation:rel ~group_position:0
    ~to_category:"Category" ~value_position:2 ~op:Aggregate.Sum ?check ()

let print_totals = function
  | Ok rows ->
    List.iter (fun r -> Format.printf "  %a@." Aggregate.pp_row r) rows
  | Error e -> Printf.printf "  refused: %s\n" e

let () =
  section "Sales under assessment";
  R.Table_fmt.print ~title:"sales" (sales_relation "sales");

  section "Summarizability diagnosis (bad classification)";
  let bad = product_instance product_links_bad in
  Format.printf "%a@." Dim_instance.pp_report (Dim_instance.diagnose bad);
  Printf.printf "\nItem -> Category summarizable? %b\n"
    (Dim_instance.summarizable bad ~from_category:"Item" ~to_category:"Category");
  Printf.printf "guarded aggregation over the NON-STRICT hierarchy:\n";
  print_totals (totals_by_category bad (sales_relation "sales"));
  Printf.printf "forced anyway (~check:false; heater counted twice):\n";
  print_totals (totals_by_category ~check:false bad (sales_relation "sales"));

  section "After fixing the classification";
  let fixed = product_instance product_links_fixed in
  let report = Dim_instance.diagnose fixed in
  Printf.printf "strict: %b, homogeneous: %b\n" report.strict
    report.homogeneous;
  Printf.printf "category totals (correct):\n";
  print_totals (totals_by_category fixed (sales_relation "sales"));

  section "Separability of the tax-rate EGD";
  let m = ontology fixed in
  let p = Md_ontology.program m in
  Format.printf "EGD: %a@." Egd.pp egd_tax;
  Format.printf "  non-affected-heads criterion: %a@."
    Analysis.pp_separability (Analysis.analyse p).Analysis.egds;
  Format.printf "  categorical-positions criterion: %a@."
    Analysis.pp_separability (Md_ontology.separability m);

  section "Inter-dimensional constraint: recalled items in Berlin";
  Format.printf "%a@." Nc.pp nc_recall;
  (* the extensional sales under the ontology's own categorical copy *)
  let data_with_sales = Md_ontology.instance m in
  R.Relation.iter
    (fun t -> ignore (R.Instance.add_tuple data_with_sales "sales_fact" t))
    (sales_relation "sales_fact");
  let r = Chase.run p data_with_sales in
  Format.printf "chase over sales placed in the cube: %a@."
    Chase.pp_outcome r.Chase.outcome;
  Printf.printf
    "(kettle is recalled and only sold in Paris, so no violation)\n";
  ignore
    (R.Instance.add_tuple data_with_sales "sales_fact"
       (R.Tuple.of_list [ sym "kettle"; sym "s1"; R.Value.real 30.0 ]));
  let r2 = Chase.run p data_with_sales in
  Format.printf "after selling a kettle in Berlin: %a@." Chase.pp_outcome
    r2.Chase.outcome;

  section "Quality context: audited cities only";
  let assessment = Context.assess (context fixed) ~source:(source ()) in
  (match Context.quality_version assessment "sales" with
   | Some q ->
     R.Table_fmt.print ~title:"sales_q (audited stores only)" q;
     Format.printf "@.%a@." Assessment.pp_report (Assessment.report assessment);
     Printf.printf "\nquality category totals (Berlin only was audited):\n";
     print_totals (totals_by_category fixed q)
   | None -> print_endline "no quality version")
