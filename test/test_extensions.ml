(* Tests for the extension modules: CQ containment/minimization, UCQ
   pruning in the rewriter, subset repairs, and the .mdq context file
   format. *)

open Mdqa_datalog
open Mdqa_context
module R = Mdqa_relational
module Hospital = Mdqa_hospital.Hospital

let v = Term.var
let s x = Term.sym x
let atom p args = Atom.make p args
let sym = R.Value.sym
let tuple_testable = Alcotest.testable R.Tuple.pp R.Tuple.equal

(* ------------------------------------------------------------------ *)
(* Containment *)

let q_path2 =
  (* q(X) :- e(X,Y), e(Y,Z) *)
  Query.make ~head:[ v "X" ] [ atom "e" [ v "X"; v "Y" ]; atom "e" [ v "Y"; v "Z" ] ]

let q_edge =
  (* q(X) :- e(X,Y) *)
  Query.make ~head:[ v "X" ] [ atom "e" [ v "X"; v "Y" ] ]

let test_containment_basic () =
  (* two-step sources are a subset of one-step sources *)
  Alcotest.(check bool) "path2 ⊆ edge" true
    (Containment.contained ~sub:q_path2 ~super:q_edge);
  Alcotest.(check bool) "edge ⊄ path2" false
    (Containment.contained ~sub:q_edge ~super:q_path2)

let test_containment_constants () =
  let qa = Query.make ~head:[ v "X" ] [ atom "e" [ v "X"; s "a" ] ] in
  Alcotest.(check bool) "e(X,a) ⊆ e(X,Y)" true
    (Containment.contained ~sub:qa ~super:q_edge);
  Alcotest.(check bool) "e(X,Y) ⊄ e(X,a)" false
    (Containment.contained ~sub:q_edge ~super:qa)

let test_containment_alpha_equivalence () =
  let q1 = Query.make ~head:[ v "A" ] [ atom "e" [ v "A"; v "B" ] ] in
  Alcotest.(check bool) "alpha-equivalent" true
    (Containment.equivalent q1 q_edge)

let test_containment_head_matters () =
  (* same body, different head position: not contained *)
  let q_src = Query.make ~head:[ v "X" ] [ atom "e" [ v "X"; v "Y" ] ] in
  let q_dst = Query.make ~head:[ v "Y" ] [ atom "e" [ v "X"; v "Y" ] ] in
  Alcotest.(check bool) "src vs dst" false
    (Containment.contained ~sub:q_src ~super:q_dst)

let test_containment_cmps_conservative () =
  let with_cmp =
    Query.make ~head:[ v "X" ]
      ~cmps:[ Atom.Cmp.make Atom.Cmp.Neq (v "X") (s "a") ]
      [ atom "e" [ v "X"; v "Y" ] ]
  in
  (* narrowing: with_cmp ⊆ plain *)
  Alcotest.(check bool) "cmp query contained in plain" true
    (Containment.contained ~sub:with_cmp ~super:q_edge);
  (* sound refusal in the other direction *)
  Alcotest.(check bool) "plain not contained in cmp query" false
    (Containment.contained ~sub:q_edge ~super:with_cmp)

let test_minimize () =
  (* q(X) :- e(X,Y), e(X,Z): the second atom is redundant *)
  let q =
    Query.make ~head:[ v "X" ]
      [ atom "e" [ v "X"; v "Y" ]; atom "e" [ v "X"; v "Z" ] ]
  in
  let m = Containment.minimize q in
  Alcotest.(check int) "one atom left" 1 (List.length m.Query.body);
  Alcotest.(check bool) "still equivalent" true (Containment.equivalent q m);
  (* a genuinely non-redundant query is untouched *)
  let m2 = Containment.minimize q_path2 in
  Alcotest.(check int) "path query keeps both atoms" 2
    (List.length m2.Query.body)

let test_prune_ucq () =
  let kept = Containment.prune_ucq [ q_edge; q_path2 ] in
  Alcotest.(check int) "subsumed disjunct dropped" 1 (List.length kept);
  Alcotest.(check bool) "the general one kept" true
    (Containment.equivalent (List.hd kept) q_edge);
  (* equivalent disjuncts collapse to the first *)
  let q_edge' = Query.make ~head:[ v "A" ] [ atom "e" [ v "A"; v "B" ] ] in
  Alcotest.(check int) "equivalent pair collapses" 1
    (List.length (Containment.prune_ucq [ q_edge; q_edge' ]))

(* Disjuncts over different predicates are never compared: the
   rewriting of q(X) :- p(X) over 3,000 rules p(X) :- eI(X). keeps all
   3,001 disjuncts, and takes well under 2 s (all pairs: about 12 s). *)
let test_prune_wide_ucq () =
  let { Parser.program; _ } =
    Parser.parse_string
      (String.concat "\n" (List.init 3000 (Printf.sprintf "p(X) :- e%d(X).")))
  in
  let q = Parser.parse_query "q(X) :- p(X)" in
  let t0 = Unix.gettimeofday () in
  (match Rewrite.rewrite program q with
   | Guard.Complete r ->
     Alcotest.(check int) "3,001 disjuncts" 3001 (List.length r.Rewrite.ucq);
     Alcotest.(check int) "none pruned" 0 r.Rewrite.pruned
   | Guard.Degraded (_, e) ->
     Alcotest.failf "degraded: %s" (Guard.resource_name e.Guard.resource));
  let dt = Unix.gettimeofday () -. t0 in
  if dt >= 2.0 then Alcotest.failf "rewriting took %.2f s" dt

let test_rewrite_pruning_integration () =
  (* pu(U,P) :- pw(W,P), uw(U,W) and pu is also derived from itself via
     copy rule: copy(U,P) :- pu(U,P); query over copy unfolds to both
     pu and the join; the pu disjunct subsumes nothing here, so both
     survive; with an extra redundant rule the pruner kicks in. *)
  let tgd body head =
    Tgd.make ~name:(Atom.pred (List.hd head)) ~body ~head ()
  in
  let p =
    Program.make
      ~tgds:
        [ tgd [ atom "pu" [ v "U"; v "P" ] ] [ atom "copy" [ v "U"; v "P" ] ];
          (* redundant second derivation of copy *)
          tgd
            [ atom "pu" [ v "U"; v "P" ]; atom "unit" [ v "U" ] ]
            [ atom "copy" [ v "U"; v "P" ] ] ]
      ()
  in
  let q = Query.make ~head:[ v "P" ] [ atom "copy" [ v "U"; v "P" ] ] in
  (match Rewrite.rewrite p q with
   | Guard.Complete r ->
     Alcotest.(check int) "unpruned has 3 disjuncts" 3
       (List.length r.Rewrite.ucq + r.Rewrite.pruned);
     Alcotest.(check int) "pruned drops the guarded variant" 2
       (List.length r.Rewrite.ucq);
     Alcotest.(check int) "reports 1 pruned" 1 r.Rewrite.pruned
   | Guard.Degraded (_, e) ->
     Alcotest.failf "degraded: %s" (Guard.resource_name e.Guard.resource))

(* ------------------------------------------------------------------ *)
(* Repair *)

let nc_bad = Nc.make ~name:"no_bad" [ atom "p" [ v "X" ]; atom "bad" [ v "X" ] ]

let repair_instance rows =
  let inst = R.Instance.create () in
  ignore (R.Instance.declare inst (R.Rel_schema.of_names "p" [ "a" ]));
  ignore (R.Instance.declare inst (R.Rel_schema.of_names "bad" [ "a" ]));
  List.iter
    (fun (rel, x) ->
      ignore (R.Instance.add_tuple inst rel (R.Tuple.of_list [ sym x ])))
    rows;
  inst

let test_repair_violations () =
  let p = Program.make ~ncs:[ nc_bad ] () in
  let inst = repair_instance [ ("p", "x"); ("bad", "x"); ("p", "y") ] in
  match Repair.violations p inst ~deletable:(fun r -> r = "p") with
  | Ok [ w ] ->
    Alcotest.(check string) "constraint" "no_bad" w.Repair.constraint_name;
    Alcotest.(check int) "only the deletable tuple listed" 1
      (List.length w.Repair.deletions)
  | Ok l -> Alcotest.failf "expected 1 witness, got %d" (List.length l)
  | Error e -> Alcotest.fail e

let test_repair_unrepairable () =
  let p = Program.make ~ncs:[ nc_bad ] () in
  let inst = repair_instance [ ("p", "x"); ("bad", "x") ] in
  (* nothing deletable: unrepairable *)
  (match Repair.violations p inst ~deletable:(fun _ -> false) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected unrepairable error")

let test_repair_derived_rejected () =
  let tgd =
    Tgd.make ~name:"q_to_p"
      ~body:[ atom "q" [ v "X" ] ]
      ~head:[ atom "p" [ v "X" ] ]
      ()
  in
  let p = Program.make ~tgds:[ tgd ] ~ncs:[ nc_bad ] () in
  let inst = repair_instance [] in
  (match Repair.violations p inst ~deletable:(fun _ -> true) with
   | Error e -> Alcotest.(check bool) "mentions derived" true
       (String.length e > 0)
   | Ok _ -> Alcotest.fail "expected derived-predicate error")

let test_repair_hitting_sets () =
  (* two violations sharing one tuple: minimal repairs are {shared} and
     {other1, other2} *)
  let d rel x = { Repair.relation = rel; tuple = R.Tuple.of_list [ sym x ] } in
  let witnesses =
    [ { Repair.constraint_name = "c1"; deletions = [ d "p" "shared"; d "p" "a" ] };
      { Repair.constraint_name = "c2"; deletions = [ d "p" "shared"; d "p" "b" ] } ]
  in
  let repairs = Guard.value (Repair.repairs witnesses) in
  Alcotest.(check int) "two minimal repairs" 2 (List.length repairs);
  Alcotest.(check bool) "singleton repair present" true
    (List.exists (fun r -> List.length r = 1) repairs);
  Alcotest.(check bool) "pair repair present" true
    (List.exists (fun r -> List.length r = 2) repairs);
  let greedy = Repair.greedy_repair witnesses in
  Alcotest.(check int) "greedy picks the shared tuple" 1 (List.length greedy)

let test_repair_apply () =
  let inst = repair_instance [ ("p", "x"); ("p", "y") ] in
  let out =
    Repair.apply inst
      [ { Repair.relation = "p"; tuple = R.Tuple.of_list [ sym "x" ] } ]
  in
  Alcotest.(check int) "one left" 1 (R.Relation.cardinal (R.Instance.get out "p"));
  Alcotest.(check int) "original untouched" 2
    (R.Relation.cardinal (R.Instance.get inst "p"))

let test_repair_hospital_discard () =
  (* the paper's Example 1: the raw PatientWard has Tom in W3
     (Intensive) on Sep/7; the repair discards exactly that tuple and
     the pipeline then computes Table II *)
  let ctx = Hospital.context ~raw_patient_ward:true () in
  match Repair.assess_repaired ctx ~source:(Hospital.source ()) with
  | Error e -> Alcotest.fail e
  | Ok (a, removed) ->
    Alcotest.(check int) "one tuple discarded" 1 (List.length removed);
    let d = List.hd removed in
    Alcotest.(check string) "from patient_ward" "patient_ward"
      d.Repair.relation;
    Alcotest.check tuple_testable "the W3/Sep7 tuple"
      (R.Tuple.of_list [ sym "W3"; sym "Sep/7"; sym "Tom Waits" ])
      d.Repair.tuple;
    Alcotest.(check bool) "assessment saturates" true
      (a.Context.chase.Chase.outcome = Chase.Saturated);
    (match Context.quality_version a "measurements" with
     | Some q ->
       Alcotest.(check bool) "Table II recovered" true
         (R.Tuple.Set.equal (R.Relation.to_set q)
            (R.Relation.to_set Hospital.expected_measurements_q))
     | None -> Alcotest.fail "no quality version")

let test_repair_cautious_answers () =
  let ctx = Hospital.context ~raw_patient_ward:true () in
  match Repair.cautious_answers ctx ~source:(Hospital.source ()) Hospital.doctor_query with
  | Ok (Guard.Complete answers) ->
    Alcotest.(check (list tuple_testable)) "row 1 certain under all repairs"
      [ R.Tuple.of_list [ sym "Sep/5-12:10"; sym "Tom Waits"; R.Value.real 38.2 ] ]
      answers
  | Ok (Guard.Degraded (_, e)) ->
    Alcotest.failf "degraded: %s" (Guard.resource_name e.Guard.resource)
  | Error e -> Alcotest.fail e

let test_repair_consistent_context_noop () =
  let ctx = Hospital.context () in
  match Repair.assess_repaired ctx ~source:(Hospital.source ()) with
  | Ok (_, removed) -> Alcotest.(check int) "nothing discarded" 0 (List.length removed)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Md_parser (.mdq format) *)

let mdq_text =
  {|
    dimension Loc {
      category Sensor -> Station.
      member "s1" in Sensor -> "st1".
      member "s2" in Sensor -> "st1".
      member "st1" in Station.
    }
    relation calib(station in Loc.Station, tech).
    relation sensor_ok(sensor in Loc.Sensor).
    source readings(sensor, value).
    map readings -> readings_c.
    quality readings -> readings_q.

    calib("st1", "carol").
    readings("s1", 17).
    readings("s2", 9).

    sensor_ok(S) :- calib(ST, T), station_sensor(ST, S).
    readings_q(S, V) :- readings_c(S, V), sensor_ok(S).
    ?q(S) :- readings(S, V).
  |}

let test_mdq_parse_structure () =
  let p = Md_parser.parse_string mdq_text in
  Alcotest.(check int) "one query" 1 (List.length p.Md_parser.queries);
  Alcotest.(check int) "one dimensional rule" 1
    (List.length p.Md_parser.ontology.Mdqa_multidim.Md_ontology.rules);
  Alcotest.(check int) "one context rule" 1
    (List.length p.Md_parser.context.Context.rules);
  Alcotest.(check int) "source facts loaded" 2
    (R.Relation.cardinal (R.Instance.get p.Md_parser.source "readings"))

let mdq_simple =
  {|
    dimension Loc {
      category Sensor -> Station.
      member "s1" in Sensor -> "st1".
      member "s2" in Sensor -> "st2".
      member "st1" in Station.
      member "st2" in Station.
    }
    relation calib(station in Loc.Station, tech).
    relation sensor_ok(sensor in Loc.Sensor).
    source readings(sensor, value).
    map readings -> readings_c.
    quality readings -> readings_q.

    calib("st1", "carol").
    readings("s1", 17).
    readings("s2", 9).

    sensor_ok(S) :- calib(ST, T), station_sensor(ST, S).
    readings_q(S, V) :- readings_c(S, V), sensor_ok(S).
    ?q(S) :- readings(S, V).
  |}

let test_mdq_quality_pipeline () =
  let p = Md_parser.parse_string mdq_simple in
  let a = Context.assess p.Md_parser.context ~source:p.Md_parser.source in
  Alcotest.(check bool) "saturated" true
    (a.Context.chase.Chase.outcome = Chase.Saturated);
  (match Context.quality_version a "readings" with
   | Some q ->
     Alcotest.(check int) "only calibrated-station reading" 1
       (R.Relation.cardinal q);
     Alcotest.(check bool) "it is s1's" true
       (R.Relation.mem q (R.Tuple.of_list [ sym "s1"; R.Value.int 17 ]))
   | None -> Alcotest.fail "no quality version");
  (* clean answers of the embedded query *)
  (match Context.clean_answers a (List.hd p.Md_parser.queries) with
   | Some answers ->
     Alcotest.(check (list tuple_testable)) "only s1 is a quality answer"
       [ R.Tuple.of_list [ sym "s1" ] ]
       answers
   | None -> Alcotest.fail "inconsistent")

let test_mdq_hospital_file () =
  (* the shipped example file parses and, with repair, reproduces the
     paper end to end *)
  let p = Md_parser.parse_file "../examples/hospital.mdq" in
  Alcotest.(check int) "two queries" 2 (List.length p.Md_parser.queries);
  match Repair.assess_repaired p.Md_parser.context ~source:p.Md_parser.source with
  | Error e -> Alcotest.fail e
  | Ok (a, removed) ->
    Alcotest.(check int) "the W3 tuple discarded" 1 (List.length removed);
    (match Context.quality_version a "measurements" with
     | Some q -> Alcotest.(check int) "Table II size" 2 (R.Relation.cardinal q)
     | None -> Alcotest.fail "no quality version")

let test_mdq_external_sources () =
  (* quality = reading from a calibrated station whose technician is on
     the certified list — the list is a closed external source *)
  let text =
    {|
      dimension Loc {
        category Sensor -> Station.
        member "s1" in Sensor -> "st1".
        member "s2" in Sensor -> "st2".
        member "st1" in Station.
        member "st2" in Station.
      }
      relation calib(station in Loc.Station, tech).
      relation sensor_ok(sensor in Loc.Sensor).
      source readings(sensor, value).
      external certified(tech).
      map readings -> readings_c.
      quality readings -> readings_q.

      calib("st1", "carol").
      calib("st2", "mallory").
      certified("carol").
      readings("s1", 17).
      readings("s2", 9).

      sensor_ok(S) :- calib(ST, T), station_sensor(ST, S), certified(T).
      readings_q(S, V) :- readings_c(S, V), sensor_ok(S).
    |}
  in
  let p = Md_parser.parse_string text in
  Alcotest.(check int) "external captured" 1
    (List.length p.Md_parser.context.Context.externals);
  (* the sensor_ok rule mentions the external predicate: classified as
     a contextual rule, not a dimensional one *)
  Alcotest.(check int) "contextual rules" 2
    (List.length p.Md_parser.context.Context.rules);
  let a = Context.assess p.Md_parser.context ~source:p.Md_parser.source in
  (match Context.quality_version a "readings" with
   | Some q ->
     Alcotest.(check int) "only carol's station qualifies" 1
       (R.Relation.cardinal q);
     Alcotest.(check bool) "s1 kept" true
       (R.Relation.mem q (R.Tuple.of_list [ sym "s1"; R.Value.int 17 ]))
   | None -> Alcotest.fail "no quality version");
  (* and the serializer round-trips the external *)
  let text' =
    Md_pretty.context_to_string ~source:p.Md_parser.source p.Md_parser.context
  in
  let p2 = Md_parser.parse_string text' in
  Alcotest.(check int) "external survives round-trip" 1
    (List.length p2.Md_parser.context.Context.externals)

(* [Context.prepare] shares the tuple sets of the sources and externals
   instead of copying them; the chase then derives into both the mapped
   copy and the external, and neither the sources, the context's
   externals nor the ontology's data may see it. *)
let test_prepare_shares_without_aliasing () =
  let text =
    {|
      dimension Loc {
        category Sensor -> Station.
        member "s1" in Sensor -> "st1".
        member "s2" in Sensor -> "st2".
        member "st1" in Station.
        member "st2" in Station.
      }
      relation calib(station in Loc.Station, tech).
      source readings(sensor, value).
      external certified(tech).
      map readings -> readings_c.
      quality readings -> readings_q.

      calib("st1", "carol").
      calib("st2", "mallory").
      certified("carol").
      readings("s1", 17).
      readings("s2", 9).

      certified(T) :- calib(ST, T).
      readings_c(S, 0) :- calib(ST, T), station_sensor(ST, S).
      readings_q(S, V) :- readings_c(S, V), certified(T).
    |}
  in
  let p = Md_parser.parse_string text in
  let ctx = p.Md_parser.context and source = p.Md_parser.source in
  (* snapshots as tuple lists: a copy would share what it checks *)
  let rels = List.map (fun r -> (R.Relation.name r, R.Relation.to_list r)) in
  let snapshot i = rels (R.Instance.relations i) in
  let source_before = snapshot source in
  let externals_before = rels ctx.Context.externals in
  let data () =
    snapshot (Mdqa_multidim.Md_ontology.instance p.Md_parser.ontology)
  in
  let data_before = data () in
  let prepared = Context.prepare ctx ~source in
  let prepared_before = snapshot prepared in
  let a = Context.assess_prepared ctx ~source ~prepared in
  Alcotest.(check bool) "saturated" true
    (a.Context.chase.Chase.outcome = Chase.Saturated);
  let derived pred =
    R.Relation.cardinal (R.Instance.get a.Context.chase.Chase.instance pred)
  in
  Alcotest.(check int) "derived into the mapped copy" 4 (derived "readings_c");
  Alcotest.(check int) "derived into the external" 2 (derived "certified");
  (* a repair edits the prepared instance in place *)
  let edit pred t =
    let r = R.Instance.get prepared pred in
    ignore (R.Relation.add r (R.Tuple.of_list t));
    ignore (R.Relation.remove r (List.hd (R.Relation.to_list r)))
  in
  edit "readings_c" [ sym "s3"; R.Value.int 1 ];
  edit "certified" [ sym "dave" ];
  Alcotest.(check bool) "source unchanged" true
    (source_before = snapshot source);
  Alcotest.(check bool) "externals unchanged" true
    (externals_before = rels ctx.Context.externals);
  Alcotest.(check bool) "ontology data unchanged" true (data_before = data ());
  Alcotest.(check bool) "a second prepare returns the first's relations" true
    (prepared_before = snapshot (Context.prepare ctx ~source));
  Alcotest.(check bool) "the edits stay in the prepared instance" false
    (prepared_before = snapshot prepared);
  (* and the whole pipeline again gives the same chase *)
  let b = Context.assess ctx ~source in
  Alcotest.(check bool) "same fixpoint twice" true
    (snapshot a.Context.chase.Chase.instance
    = snapshot b.Context.chase.Chase.instance)

let test_mdq_telecom_file () =
  (* the shipped, serializer-generated telecom file reproduces the
     fixture's quality pipeline, DAG dimension included *)
  let p = Md_parser.parse_file "../examples/telecom.mdq" in
  let cal =
    List.find
      (fun d ->
        Mdqa_multidim.Dim_schema.name (Mdqa_multidim.Dim_instance.schema d)
        = "Calendar")
      p.Md_parser.ontology.Mdqa_multidim.Md_ontology.dim_instances
  in
  Alcotest.(check (list string)) "DAG parents preserved" [ "Month"; "Week" ]
    (Mdqa_multidim.Dim_schema.parents
       (Mdqa_multidim.Dim_instance.schema cal)
       "Day");
  let a = Context.assess p.Md_parser.context ~source:p.Md_parser.source in
  (match Context.quality_version a "cdr" with
   | Some q -> Alcotest.(check int) "3 quality CDRs" 3 (R.Relation.cardinal q)
   | None -> Alcotest.fail "no quality version");
  match Context.clean_answers a (List.hd p.Md_parser.queries) with
  | Some [ t ] ->
    Alcotest.check tuple_testable "alice week 2"
      (R.Tuple.of_list [ sym "d10"; sym "c3" ])
      t
  | _ -> Alcotest.fail "expected exactly one quality answer"

let test_mdq_errors () =
  let bad input =
    match Md_parser.parse_string input with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected .mdq error on %S" input
  in
  (* fact over undeclared predicate *)
  bad {| dimension D { category C. member "m" in C. } mystery(a). |};
  (* unknown category in a relation *)
  bad
    {| dimension D { category C. member "m" in C. }
       relation r(x in D.Nope). |};
  (* invalid dimensional rule: shared variable at plain position *)
  bad
    {| dimension D { category C1 -> C2. member "m" in C1 -> "n". member "n" in C2. }
       relation r(x in D.C1, y).
       relation r2(x in D.C2, y).
       r2(U, Y) :- r(W, Y), c2_c1(U, W), r(W2, Y). |};
  (* member in unknown category *)
  bad {| dimension D { member "m" in Nowhere. } |};
  (* unterminated dimension block *)
  bad {| dimension D { category C. |}

(* ------------------------------------------------------------------ *)
(* Md_pretty: .mdq serialization round-trips *)

let test_md_pretty_roundtrip_simple () =
  let p1 = Md_parser.parse_string mdq_simple in
  let text =
    Md_pretty.context_to_string ~source:p1.Md_parser.source
      ~queries:p1.Md_parser.queries p1.Md_parser.context
  in
  let p2 = Md_parser.parse_string text in
  (* the reparsed context computes the same quality version *)
  let a1 = Context.assess p1.Md_parser.context ~source:p1.Md_parser.source in
  let a2 = Context.assess p2.Md_parser.context ~source:p2.Md_parser.source in
  match
    (Context.quality_version a1 "readings", Context.quality_version a2 "readings")
  with
  | Some q1, Some q2 ->
    Alcotest.(check bool) "same quality version" true
      (R.Tuple.Set.equal (R.Relation.to_set q1) (R.Relation.to_set q2))
  | _ -> Alcotest.fail "quality version missing after round-trip"

let test_md_pretty_roundtrip_hospital () =
  let p1 = Md_parser.parse_file "../examples/hospital.mdq" in
  let text =
    Md_pretty.context_to_string ~source:p1.Md_parser.source
      ~queries:p1.Md_parser.queries p1.Md_parser.context
  in
  let p2 = Md_parser.parse_string text in
  Alcotest.(check int) "queries preserved" 2 (List.length p2.Md_parser.queries);
  (* same end-to-end result (with repair, since the raw tuple is in) *)
  match Repair.assess_repaired p2.Md_parser.context ~source:p2.Md_parser.source with
  | Error e -> Alcotest.fail e
  | Ok (a, removed) ->
    Alcotest.(check int) "repair still finds the tuple" 1 (List.length removed);
    (match Context.quality_version a "measurements" with
     | Some q -> Alcotest.(check int) "Table II size" 2 (R.Relation.cardinal q)
     | None -> Alcotest.fail "no quality version")

let test_md_pretty_exports_generator () =
  (* programmatically built contexts (the scaled generator) export to
     parseable .mdq *)
  let g = Hospital.Gen.default in
  let ctx = Hospital.Gen.context g in
  let text = Md_pretty.ontology_to_string ctx.Context.ontology in
  Alcotest.(check bool) "nonempty" true (String.length text > 1000);
  (* the ontology fragment alone must parse *)
  let p = Md_parser.parse_string text in
  Alcotest.(check int) "rules preserved" 2
    (List.length p.Md_parser.ontology.Mdqa_multidim.Md_ontology.rules)

(* ------------------------------------------------------------------ *)
(* Properties: containment, pruning, repairs *)

let gen_cq =
  QCheck.Gen.(
    let var = oneofl [ "X"; "Y"; "Z" ] in
    let term =
      oneof [ map v var; map s (oneofl [ "c1"; "c2" ]) ]
    in
    let gen_atom =
      oneof
        [ map (fun t -> atom "a" [ t ]) term;
          map (fun t -> atom "b" [ t ]) term;
          map2 (fun t u -> atom "e" [ t; u ]) term term ]
    in
    let* extra = list_size (0 -- 3) gen_atom in
    (* first atom anchors the head variable *)
    let* anchor =
      oneof
        [ map (fun t -> atom "e" [ v "X"; t ]) term;
          return (atom "a" [ v "X" ]) ]
    in
    return (Query.make ~head:[ v "X" ] (anchor :: extra)))

let cq_arb =
  QCheck.make ~print:(Format.asprintf "%a" Query.pp) gen_cq

let gen_small_instance =
  QCheck.Gen.(
    let const = oneofl [ "c1"; "c2"; "c3" ] in
    let* facts_a = list_size (0 -- 3) const in
    let* facts_b = list_size (0 -- 3) const in
    let* facts_e = list_size (0 -- 5) (pair const const) in
    return
      (let inst = R.Instance.create () in
       ignore (R.Instance.declare inst (R.Rel_schema.of_names "a" [ "x" ]));
       ignore (R.Instance.declare inst (R.Rel_schema.of_names "b" [ "x" ]));
       ignore (R.Instance.declare inst (R.Rel_schema.of_names "e" [ "x"; "y" ]));
       List.iter
         (fun x ->
           ignore (R.Instance.add_tuple inst "a" (R.Tuple.of_list [ sym x ])))
         facts_a;
       List.iter
         (fun x ->
           ignore (R.Instance.add_tuple inst "b" (R.Tuple.of_list [ sym x ])))
         facts_b;
       List.iter
         (fun (x, y) ->
           ignore
             (R.Instance.add_tuple inst "e" (R.Tuple.of_list [ sym x; sym y ])))
         facts_e;
       inst))

let instance_arb =
  QCheck.make ~print:(Format.asprintf "%a" R.Instance.pp) gen_small_instance

let prop_containment_reflexive =
  QCheck.Test.make ~name:"containment is reflexive" ~count:200 cq_arb
    (fun q -> Containment.contained ~sub:q ~super:q)

let prop_containment_narrowing =
  QCheck.Test.make ~name:"adding an atom narrows a query" ~count:200
    (QCheck.pair cq_arb cq_arb) (fun (q, extra_src) ->
      let narrowed =
        Query.make ~head:q.Query.head (q.Query.body @ extra_src.Query.body)
      in
      Containment.contained ~sub:narrowed ~super:q)

let prop_containment_semantic =
  QCheck.Test.make ~name:"containment is sound on random instances"
    ~count:300
    (QCheck.triple cq_arb cq_arb instance_arb)
    (fun (q1, q2, inst) ->
      QCheck.assume (Containment.contained ~sub:q1 ~super:q2);
      let a1 = Query.certain inst q1 and a2 = Query.certain inst q2 in
      List.for_all (fun t -> List.mem t a2) a1)

let prop_minimize_equivalent =
  QCheck.Test.make ~name:"minimize preserves equivalence and is idempotent"
    ~count:200 cq_arb (fun q ->
      let m = Containment.minimize q in
      Containment.equivalent q m
      && List.length (Containment.minimize m).Query.body
         = List.length m.Query.body)

let prop_prune_preserves_union =
  QCheck.Test.make ~name:"UCQ pruning preserves the union's answers"
    ~count:200
    (QCheck.pair (QCheck.list_of_size (QCheck.Gen.int_range 1 4) cq_arb)
       instance_arb)
    (fun (ucq, inst) ->
      let answers qs =
        List.fold_left
          (fun acc q ->
            List.fold_left
              (fun acc t -> R.Tuple.Set.add t acc)
              acc (Query.certain inst q))
          R.Tuple.Set.empty qs
      in
      R.Tuple.Set.equal (answers ucq) (answers (Containment.prune_ucq ucq)))

(* The predicate filter is exact: the pruned UCQ is the one the
   all-pairs loop (the filter's reference) keeps. *)
let all_pairs_prune disjuncts =
  let arr = Array.of_list disjuncts in
  let n = Array.length arr in
  let dropped = Array.make n false in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && (not dropped.(i)) && not dropped.(j) then
        if Containment.contained ~sub:arr.(i) ~super:arr.(j) then
          if Containment.contained ~sub:arr.(j) ~super:arr.(i) then begin
            if j < i then dropped.(i) <- true else dropped.(j) <- true
          end
          else dropped.(i) <- true
    done
  done;
  List.filteri (fun i _ -> not dropped.(i)) disjuncts

let prop_prune_all_pairs =
  QCheck.Test.make ~name:"UCQ pruning keeps what all pairs keep" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 1 6) cq_arb)
    (fun ucq ->
      List.equal ( == ) (Containment.prune_ucq ucq) (all_pairs_prune ucq))

(* random witness structures for repair properties *)
let gen_witnesses =
  QCheck.Gen.(
    let deletion =
      map
        (fun i ->
          { Repair.relation = "p"; tuple = R.Tuple.of_list [ R.Value.int i ] })
        (0 -- 5)
    in
    list_size (1 -- 4)
      (let* ds = list_size (1 -- 3) deletion in
       return { Repair.constraint_name = "c"; deletions = ds }))

let witnesses_arb =
  QCheck.make
    ~print:(fun ws ->
      String.concat "; "
        (List.map
           (fun w ->
             String.concat ","
               (List.map
                  (fun d -> Format.asprintf "%a" R.Tuple.pp d.Repair.tuple)
                  w.Repair.deletions))
           ws))
    gen_witnesses

let hits_all repair ws =
  List.for_all
    (fun w ->
      List.exists
        (fun d -> List.exists (fun d' -> d = d') w.Repair.deletions)
        repair)
    ws

let prop_repairs_hit_all =
  QCheck.Test.make ~name:"every repair hits every violation" ~count:200
    witnesses_arb (fun ws ->
      let rs = Guard.value (Repair.repairs ws) in
      rs <> [] && List.for_all (fun r -> hits_all r ws) rs)

let prop_repairs_minimal =
  QCheck.Test.make ~name:"repairs are pairwise incomparable" ~count:200
    witnesses_arb (fun ws ->
      let rs = Guard.value (Repair.repairs ws) in
      let subset a b = List.for_all (fun d -> List.mem d b) a in
      List.for_all
        (fun r ->
          List.for_all (fun r' -> r == r' || not (subset r' r)) rs)
        rs)

let prop_greedy_repairs =
  QCheck.Test.make ~name:"greedy repair hits every violation" ~count:200
    witnesses_arb (fun ws -> hits_all (Repair.greedy_repair ws) ws)

let extension_qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_containment_reflexive; prop_containment_narrowing;
      prop_containment_semantic; prop_minimize_equivalent;
      prop_prune_preserves_union; prop_prune_all_pairs; prop_repairs_hit_all;
      prop_repairs_minimal; prop_greedy_repairs ]

(* ------------------------------------------------------------------ *)
(* Provenance / Explain *)

let test_provenance_disabled_by_default () =
  let p = Program.make () in
  let r = Chase.run p (repair_instance []) in
  Alcotest.(check bool) "no table" true (r.Chase.provenance = None);
  (match Explain.why r "p" (R.Tuple.of_list [ sym "x" ]) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected error without provenance")

let test_provenance_simple_chain () =
  let tgd body head =
    Tgd.make ~name:(Atom.pred (List.hd head)) ~body ~head ()
  in
  let p =
    Program.make
      ~tgds:
        [ Tgd.make ~name:"r1" ~body:[ atom "a" [ v "X" ] ]
            ~head:[ atom "b" [ v "X" ] ] ();
          Tgd.make ~name:"r2" ~body:[ atom "b" [ v "X" ] ]
            ~head:[ atom "c" [ v "X" ] ] () ]
      ~facts:[ atom "a" [ s "k" ] ]
      ()
  in
  ignore tgd;
  let r = Chase.run ~provenance:true p (Program.instance_of_facts p) in
  match Explain.why r "c" (R.Tuple.of_list [ sym "k" ]) with
  | Error e -> Alcotest.fail e
  | Ok tree ->
    Alcotest.(check int) "depth 2" 2 (Explain.depth tree);
    Alcotest.(check (list string)) "rules" [ "r1"; "r2" ]
      (Explain.rules_used tree);
    Alcotest.(check int) "one extensional leaf" 1
      (List.length (Explain.extensional_support tree));
    Alcotest.(check string) "leaf is a(k)" "a"
      (fst (List.hd (Explain.extensional_support tree)))

let test_provenance_extensional_fact () =
  let p = Program.make ~facts:[ atom "a" [ s "k" ] ] () in
  let r = Chase.run ~provenance:true p (Program.instance_of_facts p) in
  match Explain.why r "a" (R.Tuple.of_list [ sym "k" ]) with
  | Ok tree ->
    Alcotest.(check int) "depth 0" 0 (Explain.depth tree);
    Alcotest.(check bool) "no rule" true (tree.Explain.rule = None)
  | Error e -> Alcotest.fail e

let test_provenance_missing_fact () =
  let p = Program.make ~facts:[ atom "a" [ s "k" ] ] () in
  let r = Chase.run ~provenance:true p (Program.instance_of_facts p) in
  (match Explain.why r "a" (R.Tuple.of_list [ sym "zz" ]) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected error for absent fact")

let test_provenance_egd_remap () =
  (* emp(X) -> ∃D dept(X,D); EGD merges the invented null into "hr";
     provenance must be keyed by the merged fact *)
  let p =
    Program.make
      ~tgds:
        [ Tgd.make ~name:"mkdept" ~body:[ atom "emp" [ v "X" ] ]
            ~head:[ atom "dept" [ v "X"; v "D" ] ] () ]
      ~egds:
        [ Egd.make
            ~body:
              [ atom "dept" [ v "X"; v "D1" ]; atom "dept" [ v "X"; v "D2" ] ]
            (v "D1") (v "D2") ]
      ~facts:[ atom "emp" [ s "ann" ]; atom "dept" [ s "ann"; s "hr" ] ]
      ()
  in
  let r =
    Chase.run ~variant:Chase.Oblivious ~provenance:true p
      (Program.instance_of_facts p)
  in
  Alcotest.(check bool) "saturated" true (r.Chase.outcome = Chase.Saturated);
  (* after merging, dept(ann,hr) exists; its recorded derivation (if
     the invented fact merged into it) must reference remapped facts *)
  match Explain.why r "dept" (R.Tuple.of_list [ sym "ann"; sym "hr" ]) with
  | Ok tree ->
    List.iter
      (fun (_, t) ->
        Alcotest.(check bool) "no stale nulls in support" false
          (R.Tuple.has_null t))
      (Explain.extensional_support tree)
  | Error e -> Alcotest.fail e

let test_context_explain () =
  let a =
    Context.assess ~provenance:true (Hospital.context ())
      ~source:(Hospital.source ())
  in
  let row1 =
    R.Tuple.of_list [ sym "Sep/5-12:10"; sym "Tom Waits"; R.Value.real 38.2 ]
  in
  match Context.explain a "measurements" row1 with
  | Error e -> Alcotest.fail e
  | Ok tree ->
    Alcotest.(check bool) "uses rule (7)" true
      (List.mem "rule7_patient_unit" (Explain.rules_used tree));
    Alcotest.(check bool) "rests on the ward assignment" true
      (List.exists
         (fun (p, _) -> p = "patient_ward")
         (Explain.extensional_support tree));
    Alcotest.(check bool) "depth covers the quality pipeline" true
      (Explain.depth tree >= 3)

let test_context_explain_requires_provenance () =
  let a = Context.assess (Hospital.context ()) ~source:(Hospital.source ()) in
  let row1 =
    R.Tuple.of_list [ sym "Sep/5-12:10"; sym "Tom Waits"; R.Value.real 38.2 ]
  in
  (match Context.explain a "measurements" row1 with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected error without provenance")

let case name f = Alcotest.test_case name `Quick f

let suites =
  [ ( "containment",
      [ case "basic containment" test_containment_basic;
        case "constants narrow queries" test_containment_constants;
        case "alpha equivalence" test_containment_alpha_equivalence;
        case "head positions matter" test_containment_head_matters;
        case "comparisons handled conservatively" test_containment_cmps_conservative;
        case "minimization" test_minimize;
        case "UCQ pruning" test_prune_ucq;
        case "a wide UCQ is pruned by predicates" test_prune_wide_ucq;
        case "rewriter integration" test_rewrite_pruning_integration ] );
    ( "repair",
      [ case "violation witnesses" test_repair_violations;
        case "unrepairable detected" test_repair_unrepairable;
        case "derived predicates rejected" test_repair_derived_rejected;
        case "minimal hitting sets" test_repair_hitting_sets;
        case "apply is non-destructive" test_repair_apply;
        case "Example 1: discard the intensive-care tuple"
          test_repair_hospital_discard;
        case "cautious answers" test_repair_cautious_answers;
        case "consistent context: no-op" test_repair_consistent_context_noop
      ] );
    ( "md_parser",
      [ case "structure classification" test_mdq_parse_structure;
        case "quality pipeline" test_mdq_quality_pipeline;
        case "shipped hospital.mdq reproduces the paper"
          test_mdq_hospital_file;
        case "error reporting" test_mdq_errors;
        case "external sources (Fig. 2 E_i)" test_mdq_external_sources;
        case "prepare shares tuple sets without aliasing"
          test_prepare_shares_without_aliasing;
        case "shipped telecom.mdq (DAG dimension)" test_mdq_telecom_file;
        case "pretty round-trip (sensors)" test_md_pretty_roundtrip_simple;
        case "pretty round-trip (hospital)" test_md_pretty_roundtrip_hospital;
        case "generator exports to .mdq" test_md_pretty_exports_generator ] );
    ( "explain",
      [ case "provenance off by default" test_provenance_disabled_by_default;
        case "simple rule chain" test_provenance_simple_chain;
        case "extensional facts have depth 0" test_provenance_extensional_fact;
        case "absent facts rejected" test_provenance_missing_fact;
        case "EGD merges remap provenance" test_provenance_egd_remap;
        case "quality tuple explanation" test_context_explain;
        case "explain requires provenance" test_context_explain_requires_provenance
      ] );
    ("extensions.properties", extension_qcheck_cases) ]
