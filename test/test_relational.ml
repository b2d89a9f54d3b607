(* Tests for the relational substrate: values, tuples, relations,
   instances, table formatting, CSV round-trips. *)

open Mdqa_relational

let v_sym s = Value.sym s
let v_int i = Value.int i

let value_testable = Alcotest.testable Value.pp Value.equal
let tuple_testable = Alcotest.testable Tuple.pp Tuple.equal

let tup vs = Tuple.of_list vs
let syms ss = tup (List.map v_sym ss)

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_order () =
  Alcotest.(check bool) "sym < int" true (Value.compare (v_sym "z") (v_int 0) < 0);
  Alcotest.(check bool) "int < real" true
    (Value.compare (v_int 5) (Value.real 1.0) < 0);
  Alcotest.(check bool) "const < null" true
    (Value.compare (Value.real 9.9) (Value.null 1) < 0);
  Alcotest.(check bool) "null by label" true
    (Value.compare (Value.null 1) (Value.null 2) < 0)

let test_value_null_predicates () =
  Alcotest.(check bool) "null is null" true (Value.is_null (Value.null 3));
  Alcotest.(check bool) "sym not null" false (Value.is_null (v_sym "a"));
  Alcotest.(check bool) "sym is constant" true (Value.is_constant (v_sym "a"));
  Alcotest.(check bool) "null not constant" false
    (Value.is_constant (Value.null 3))

let test_value_string_roundtrip () =
  let cases =
    [ v_sym "Tom"; v_sym "Tom Waits"; v_int 42; v_int (-7); Value.real 37.5;
      Value.null 12; v_sym "W1"; v_sym "Sep/5-12:10" ]
  in
  List.iter
    (fun v ->
      Alcotest.check value_testable
        (Format.asprintf "roundtrip %a" Value.pp v)
        v
        (Value.of_string (Value.to_string v)))
    cases

(* Letter-led spellings that [float_of_string] reads as numbers. *)
let numeric_spellings = [ "inf"; "nan"; "infinity"; "Inf"; "NaN" ]

let test_value_numeric_symbols () =
  List.iter
    (fun s ->
      Alcotest.check value_testable ("symbol " ^ s) (v_sym s)
        (Value.of_string (Value.to_string (v_sym s))))
    numeric_spellings

(* [to_string] prints without a formatter; it must print what [pp]
   does, quoting rule included. *)
let test_value_to_string_is_pp () =
  List.iter
    (fun v ->
      let want = Format.asprintf "%a" Value.pp v in
      Alcotest.(check string) want want (Value.to_string v))
    [ v_sym "inf"; v_sym "nan"; v_sym "1e5"; v_sym ""; v_sym "Tom Waits";
      v_sym "W1"; v_sym "Sep/5-12:10"; v_sym "a\"b\\c\n"; v_sym "caf\xc3\xa9";
      v_sym "_x"; v_int 0; v_int (-7); v_int min_int; Value.real 37.5;
      Value.real (-0.001); Value.real 1e21; Value.real Float.nan;
      Value.real Float.neg_infinity; Value.null 1; Value.null 12;
      v_sym "Inf"; v_sym "NaN"; v_sym "INFINITY"; v_sym "nan(12)";
      v_sym "info"; v_sym "nano"; v_sym "i"; v_sym "n" ];
  (* only whole float spellings are quoted *)
  List.iter
    (fun (s, bare) ->
      Alcotest.(check bool) s bare (Value.to_string (v_sym s) = s))
    [ ("Inf", false); ("NaN", false); ("INFINITY", false);
      ("nan(12)", false); ("info", true); ("nano", true); ("i", true);
      ("n", true) ]

let test_value_of_string_forms () =
  Alcotest.check value_testable "underscore null" (Value.null 7)
    (Value.of_string "_:7");
  Alcotest.check value_testable "int" (v_int 10) (Value.of_string "10");
  Alcotest.check value_testable "real" (Value.real 1.5) (Value.of_string "1.5");
  Alcotest.check value_testable "bare sym" (v_sym "ward") (Value.of_string "ward")

let test_fresh_gen () =
  let g = Value.Fresh.create () in
  let a = Value.Fresh.next g and b = Value.Fresh.next g in
  Alcotest.(check bool) "distinct" false (Value.equal a b);
  Alcotest.(check int) "count" 2 (Value.Fresh.count g);
  let g2 = Value.Fresh.create ~start:100 () in
  Alcotest.check value_testable "start respected" (Value.null 100)
    (Value.Fresh.next g2)

(* ------------------------------------------------------------------ *)
(* Tuple *)

let test_tuple_basic () =
  let t = syms [ "a"; "b"; "c" ] in
  Alcotest.(check int) "arity" 3 (Tuple.arity t);
  Alcotest.check value_testable "get" (v_sym "b") (Tuple.get t 1);
  Alcotest.check tuple_testable "set" (syms [ "a"; "x"; "c" ])
    (Tuple.set t 1 (v_sym "x"));
  Alcotest.check tuple_testable "set leaves original" (syms [ "a"; "b"; "c" ]) t

let test_tuple_project_append () =
  let t = syms [ "a"; "b"; "c"; "d" ] in
  Alcotest.check tuple_testable "project" (syms [ "d"; "b" ])
    (Tuple.project t [ 3; 1 ]);
  Alcotest.check tuple_testable "append"
    (syms [ "a"; "b"; "c"; "d"; "x" ])
    (Tuple.append t (syms [ "x" ]))

let test_tuple_has_null () =
  Alcotest.(check bool) "no null" false (Tuple.has_null (syms [ "a" ]));
  Alcotest.(check bool) "null" true
    (Tuple.has_null (tup [ v_sym "a"; Value.null 1 ]))

let test_tuple_bounds () =
  let t = syms [ "a" ] in
  Alcotest.check_raises "get oob"
    (Invalid_argument "Tuple.get: position 1 out of range") (fun () ->
      ignore (Tuple.get t 1))

(* ------------------------------------------------------------------ *)
(* Relation / Instance *)

let schema_ab = Rel_schema.of_names "r" [ "a"; "b" ]

let test_relation_add_mem () =
  let r = Relation.create schema_ab in
  Alcotest.(check bool) "first add" true (Relation.add r (syms [ "x"; "y" ]));
  Alcotest.(check bool) "dup add" false (Relation.add r (syms [ "x"; "y" ]));
  Alcotest.(check bool) "mem" true (Relation.mem r (syms [ "x"; "y" ]));
  Alcotest.(check int) "cardinal" 1 (Relation.cardinal r)

let test_relation_arity_check () =
  let r = Relation.create schema_ab in
  Alcotest.check_raises "arity"
    (Invalid_argument "Relation r: arity mismatch (schema 2, tuple 1)")
    (fun () -> ignore (Relation.add r (syms [ "x" ])))

let test_relation_scan () =
  let r = Relation.create schema_ab in
  ignore (Relation.add r (syms [ "x"; "1" ]));
  ignore (Relation.add r (syms [ "x"; "2" ]));
  ignore (Relation.add r (syms [ "y"; "1" ]));
  Alcotest.(check int) "probe x" 2
    (List.length (Relation.probe r [ (0, v_sym "x") ]));
  Alcotest.(check int) "probe x,2" 1
    (List.length (Relation.probe r [ (0, v_sym "x"); (1, v_sym "2") ]));
  Alcotest.(check int) "probe none" 0
    (List.length (Relation.probe r [ (0, v_sym "zz") ]));
  Alcotest.(check int) "probe all" 3 (List.length (Relation.probe r []))

let test_relation_scan_after_add () =
  (* Index maintenance: probes stay correct after further inserts. *)
  let r = Relation.create schema_ab in
  ignore (Relation.add r (syms [ "x"; "1" ]));
  ignore (Relation.probe r [ (0, v_sym "x") ]);
  ignore (Relation.add r (syms [ "x"; "2" ]));
  Alcotest.(check int) "post-insert probe" 2
    (List.length (Relation.probe r [ (0, v_sym "x") ]))

(* --- composite indexes ------------------------------------------------ *)

let schema_abc = Rel_schema.of_names "r3" [ "a"; "b"; "c" ]

let sorted l = List.sort Tuple.compare l

(* The reference answer of a probe: a filter over every tuple. *)
let filter_ref r binding =
  List.filter
    (fun t -> List.for_all (fun (p, v) -> Value.equal (Tuple.get t p) v) binding)
    (Relation.to_list r)

let rel3 rows =
  let r = Relation.create schema_abc in
  List.iter (fun row -> ignore (Relation.add r (syms row))) rows;
  r

let test_probe_empty_key () =
  let r = rel3 [ [ "x"; "1"; "p" ]; [ "x"; "2"; "q" ]; [ "y"; "1"; "p" ] ] in
  Alcotest.(check (list tuple_testable)) "probe [] is every tuple, ascending"
    (Relation.to_list r) (Relation.probe r [])

let test_probe_composite_exact () =
  let r =
    rel3
      [ [ "x"; "1"; "p" ]; [ "x"; "1"; "q" ]; [ "x"; "2"; "p" ];
        [ "y"; "1"; "p" ]; [ "y"; "2"; "q" ] ]
  in
  let check msg binding =
    Alcotest.(check (list tuple_testable)) msg
      (sorted (filter_ref r binding))
      (sorted (Relation.probe r binding))
  in
  check "(0,2) = (x,p)" [ (0, v_sym "x"); (2, v_sym "p") ];
  check "(0,1) = (x,1)" [ (0, v_sym "x"); (1, v_sym "1") ];
  check "(1,2) = (2,q)" [ (1, v_sym "2"); (2, v_sym "q") ];
  check "(0,1,2) exact" [ (0, v_sym "y"); (1, v_sym "2"); (2, v_sym "q") ];
  check "(0,2) = (y,x) misses" [ (0, v_sym "y"); (2, v_sym "x") ];
  (* a binding in another position order is just as exact *)
  check "(2,0) = (p,x)" [ (2, v_sym "p"); (0, v_sym "x") ];
  Alcotest.(check int) "two-position probe hits" 2
    (List.length (Relation.probe r [ (0, v_sym "x"); (2, v_sym "p") ]))

(* A composite bucket must follow every mutation: removal and an EGD
   style substitution drop the indexes, insertion extends them. *)
let test_probe_composite_after_mutation () =
  let r =
    rel3 [ [ "x"; "1"; "p" ]; [ "x"; "1"; "q" ]; [ "y"; "1"; "p" ] ]
  in
  let key = [ (0, v_sym "x"); (1, v_sym "1") ] in
  let count msg n binding =
    Alcotest.(check int) msg n (List.length (Relation.probe r binding));
    Alcotest.(check (list tuple_testable)) (msg ^ " = filter")
      (sorted (filter_ref r binding))
      (sorted (Relation.probe r binding))
  in
  count "before" 2 key;
  Alcotest.(check bool) "remove" true
    (Relation.remove r (syms [ "x"; "1"; "q" ]));
  count "after remove" 1 key;
  Alcotest.(check bool) "add" true (Relation.add r (syms [ "x"; "1"; "z" ]));
  count "after add" 2 key;
  (* merge a null into x: the null's row joins the (x,1) bucket *)
  ignore (Relation.add r (tup [ Value.null 7; v_sym "1"; v_sym "n" ]));
  count "null row" 1 [ (0, Value.null 7); (1, v_sym "1") ];
  ignore (Relation.substitute r (Value.Map.singleton (Value.null 7) (v_sym "x")));
  count "after substitute" 3 key;
  count "null gone" 0 [ (0, Value.null 7); (1, v_sym "1") ];
  (* the rewrite also invalidates the distinct counts *)
  Alcotest.(check int) "distinct a after merge" 2 (Relation.distinct r 0)

let test_distinct_counts () =
  let r = rel3 [ [ "x"; "1"; "p" ]; [ "x"; "2"; "p" ]; [ "y"; "1"; "p" ] ] in
  Alcotest.(check (list int)) "distinct per position" [ 2; 2; 1 ]
    (List.map (Relation.distinct r) [ 0; 1; 2 ]);
  (* cached until the cardinality doubles *)
  List.iter
    (fun i -> ignore (Relation.add r (syms [ "z" ^ string_of_int i; "1"; "p" ])))
    [ 1; 2; 3 ];
  Alcotest.(check int) "recounted at double" 5 (Relation.distinct r 0)

let test_relation_substitute () =
  let r = Relation.create schema_ab in
  ignore (Relation.add r (tup [ Value.null 1; v_sym "k" ]));
  ignore (Relation.add r (tup [ v_sym "c"; v_sym "k" ]));
  ignore (Relation.add r (tup [ Value.null 2; Value.null 1 ]));
  ignore (Relation.add r (tup [ v_sym "d"; v_sym "e" ]));
  (* simultaneous: ⊥1 ↦ c and ⊥2 ↦ ⊥1 do not chain *)
  let sigma =
    Value.Map.(
      empty
      |> add (Value.null 1) (v_sym "c")
      |> add (Value.null 2) (Value.null 1))
  in
  let images = Relation.substitute r sigma in
  Alcotest.(check (list tuple_testable)) "images of the moved tuples"
    [ syms [ "c"; "k" ]; tup [ Value.null 1; v_sym "c" ] ]
    (Tuple.Set.elements images);
  Alcotest.(check int) "merged" 3 (Relation.cardinal r);
  Alcotest.(check bool) "contains merged" true
    (Relation.mem r (syms [ "c"; "k" ]));
  Alcotest.(check bool) "untouched tuple kept" true
    (Relation.mem r (syms [ "d"; "e" ]));
  Alcotest.(check bool) "nothing moves twice" true
    (Tuple.Set.is_empty (Relation.substitute r (Value.Map.singleton (Value.null 2) (v_sym "c"))))

let test_relation_remove () =
  let r = Relation.create schema_ab in
  ignore (Relation.add r (syms [ "x"; "1" ]));
  Alcotest.(check bool) "remove" true (Relation.remove r (syms [ "x"; "1" ]));
  Alcotest.(check bool) "remove absent" false
    (Relation.remove r (syms [ "x"; "1" ]));
  Alcotest.(check int) "empty" 0 (Relation.cardinal r)

(* [union] into an empty relation shares the source's tuple set: a
   change to either side afterwards must not show in the other. *)
let test_relation_union_shares () =
  let contents r = List.map Tuple.to_list (Relation.to_list r) in
  let source = Relation.create schema_ab in
  List.iter
    (fun t -> ignore (Relation.add source t))
    [ syms [ "x"; "1" ]; syms [ "y"; "2" ]; tup [ Value.null 1; v_sym "3" ] ];
  let before = contents source in
  (* an index built before the union must not be shared either *)
  ignore (Relation.probe source [ (0, v_sym "z") ]);
  let shared = Relation.create schema_ab in
  ignore (Relation.probe shared [ (0, v_sym "z") ]);
  Relation.union shared source;
  Alcotest.(check bool) "same tuples" true (Relation.equal shared source);
  Alcotest.(check int) "cardinal taken" 3 (Relation.cardinal shared);
  ignore (Relation.add shared (syms [ "z"; "9" ]));
  ignore (Relation.remove shared (syms [ "x"; "1" ]));
  ignore
    (Relation.substitute shared
       (Value.Map.singleton (Value.null 1) (v_sym "w")));
  Alcotest.(check (list (list value_testable)))
    "source unchanged by add/remove/substitute on the sharer" before
    (contents source);
  Alcotest.(check int) "source cardinal" 3 (Relation.cardinal source);
  Alcotest.(check (list tuple_testable)) "source probe unchanged" []
    (Relation.probe source [ (0, v_sym "z") ]);
  let after = contents shared in
  ignore (Relation.add source (syms [ "v"; "0" ]));
  ignore (Relation.remove source (syms [ "y"; "2" ]));
  ignore
    (Relation.substitute source
       (Value.Map.singleton (Value.null 1) (v_sym "u")));
  Alcotest.(check (list (list value_testable)))
    "sharer unchanged by add/remove/substitute on the source" after
    (contents shared);
  (* into a non-empty relation: a plain union *)
  Relation.union shared source;
  Alcotest.(check int) "union into non-empty" 6 (Relation.cardinal shared);
  Alcotest.(check bool) "probe sees the union" true
    (Relation.probe shared [ (0, v_sym "v") ] = [ syms [ "v"; "0" ] ]);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation.union: r has arity 2, s has 1") (fun () ->
      Relation.union shared (Relation.create (Rel_schema.of_names "s" [ "a" ])))

let test_instance_declare () =
  let i = Instance.create () in
  let r = Instance.declare i schema_ab in
  Alcotest.(check bool) "same relation back" true
    (r == Instance.declare i schema_ab);
  Alcotest.check_raises "schema clash"
    (Invalid_argument "Instance.declare: schema clash for r") (fun () ->
      ignore (Instance.declare i (Rel_schema.of_names "r" [ "a" ])))

let test_instance_copy_independent () =
  let i = Instance.create () in
  ignore (Instance.declare i schema_ab);
  ignore (Instance.add_tuple i "r" (syms [ "x"; "y" ]));
  let j = Instance.copy i in
  ignore (Instance.add_tuple j "r" (syms [ "p"; "q" ]));
  Alcotest.(check int) "original unchanged" 1
    (Relation.cardinal (Instance.get i "r"));
  Alcotest.(check int) "copy extended" 2
    (Relation.cardinal (Instance.get j "r"));
  Alcotest.(check bool) "equal detects difference" false (Instance.equal i j)

let test_instance_merge () =
  let i = Instance.create () in
  ignore (Instance.declare i schema_ab);
  ignore (Instance.add_tuple i "r" (syms [ "x"; "y" ]));
  let j = Instance.create () in
  ignore (Instance.declare j schema_ab);
  ignore (Instance.add_tuple j "r" (syms [ "p"; "q" ]));
  ignore (Instance.declare j (Rel_schema.of_names "s" [ "c" ]));
  ignore (Instance.add_tuple j "s" (syms [ "z" ]));
  Instance.merge_into ~dst:i ~src:j;
  Alcotest.(check int) "r merged" 2 (Relation.cardinal (Instance.get i "r"));
  Alcotest.(check int) "s created" 1 (Relation.cardinal (Instance.get i "s"));
  Alcotest.(check int) "total" 3 (Instance.total_tuples i)

(* ------------------------------------------------------------------ *)
(* Table_fmt / Csv_io *)

let rel name rows =
  let arity = match rows with [] -> 0 | r :: _ -> List.length r in
  let schema =
    Rel_schema.of_names name (List.init arity (Printf.sprintf "c%d"))
  in
  Relation.of_tuples schema (List.map syms rows)

let test_table_render () =
  let r = rel "t" [ [ "a"; "p" ] ] in
  let s = Table_fmt.render ~title:"T" r in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "has row number" true
    (String.exists (fun c -> c = '1') s);
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "at least 6 lines" true (List.length lines >= 6)

let test_table_render_ragged_rejected () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Table_fmt.render_rows: row 0 has 1 cells, want 2")
    (fun () -> ignore (Table_fmt.render_rows ~header:[ "a"; "b" ] [ [ "x" ] ]))

(* The tests go through the Result API; the raising wrappers are
   compat-only and covered by test_diag. *)
let parse_csv_exn ~name text =
  match Csv_io.relation_of_string_result ~name text with
  | Ok r -> r
  | Error (e :: _) ->
    Alcotest.failf "CSV parse failed: %s" (Format.asprintf "%a" Csv_io.pp_error e)
  | Error [] -> Alcotest.fail "CSV parse failed with no errors"

let test_csv_roundtrip () =
  let schema = Rel_schema.of_names "m" [ "time"; "patient"; "value" ] in
  let r =
    Relation.of_tuples schema
      [ tup [ v_sym "Sep/5-12:10"; v_sym "Tom Waits"; Value.real 38.2 ];
        tup [ v_sym "Sep/6-11:50"; v_sym "Tom, Waits"; Value.null 4 ] ]
  in
  let r' = parse_csv_exn ~name:"m" (Csv_io.relation_to_string r) in
  Alcotest.(check int) "cardinal" 2 (Relation.cardinal r');
  Alcotest.(check bool) "tuples preserved" true
    (Tuple.Set.equal (Relation.to_set r) (Relation.to_set r'))

let test_csv_numeric_symbols () =
  let schema = Rel_schema.of_names "m" [ "a"; "b" ] in
  let r =
    Relation.of_tuples schema
      (List.map (fun s -> tup [ v_sym s; Value.null 1 ]) numeric_spellings)
  in
  let r' = parse_csv_exn ~name:"m" (Csv_io.relation_to_string r) in
  Alcotest.(check bool) "symbols stay symbols" true
    (Tuple.Set.equal (Relation.to_set r) (Relation.to_set r'))

let test_csv_quoting () =
  let cell = Csv_io.cell_of_value (v_sym "a,b") in
  Alcotest.(check bool) "comma quoted" true (cell.[0] = '"');
  Alcotest.check value_testable "roundtrip via of_string" (v_sym "a,b")
    (Value.of_string (Value.to_string (v_sym "a,b")))

let test_csv_file_roundtrip () =
  let schema = Rel_schema.of_names "m" [ "a"; "b" ] in
  let r =
    Relation.of_tuples schema
      [ tup [ v_sym "x"; v_int 1 ]; tup [ v_sym "long value, quoted"; v_int 2 ] ]
  in
  let path = Filename.temp_file "mdqa_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv_io.save_relation path r;
      match Csv_io.load_relation_result ~name:"m" path with
      | Error _ -> Alcotest.fail "clean CSV file rejected"
      | Ok r' ->
        Alcotest.(check bool) "roundtrip through a file" true
          (Tuple.Set.equal (Relation.to_set r) (Relation.to_set r')))

let test_csv_malformed () =
  Alcotest.(check bool) "ragged row rejected" true
    (match Csv_io.relation_of_string_result ~name:"m" "a,b\nonly_one\n" with
     | Error _ -> true
     | Ok _ -> false);
  Alcotest.(check bool) "empty input rejected" true
    (match Csv_io.relation_of_string_result ~name:"m" "" with
     | Error _ -> true
     | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Properties *)

let value_gen =
  QCheck.Gen.(
    oneof
      [ map Value.sym (string_size ~gen:(char_range 'a' 'z') (1 -- 6));
        map Value.int (0 -- 1000);
        map (fun n -> Value.null n) (0 -- 50) ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let tuple_gen = QCheck.Gen.(map Tuple.of_list (list_size (1 -- 5) value_gen))
let tuple_arb = QCheck.make ~print:(Format.asprintf "%a" Tuple.pp) tuple_gen

let prop_value_compare_total =
  QCheck.Test.make ~name:"Value.compare is antisymmetric" ~count:300
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      let c = Value.compare a b and c' = Value.compare b a in
      (c = 0) = (c' = 0) && (c > 0) = (c' < 0))

let prop_value_roundtrip =
  QCheck.Test.make ~name:"Value to/of_string roundtrip" ~count:300 value_arb
    (fun v -> Value.equal v (Value.of_string (Value.to_string v)))

let prop_tuple_project_id =
  QCheck.Test.make ~name:"Tuple.project all positions = id" ~count:200
    tuple_arb (fun t ->
      Tuple.equal t (Tuple.project t (List.init (Tuple.arity t) Fun.id)))

let prop_relation_add_idempotent =
  QCheck.Test.make ~name:"Relation insert is idempotent" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_bound 20)
       (QCheck.make QCheck.Gen.(pair (0 -- 5) (0 -- 5))))
    (fun pairs ->
      let schema = Rel_schema.of_names "p" [ "a"; "b" ] in
      let r1 = Relation.create schema and r2 = Relation.create schema in
      List.iter
        (fun (a, b) ->
          let t = tup [ v_int a; v_int b ] in
          ignore (Relation.add r1 t);
          ignore (Relation.add r2 t);
          ignore (Relation.add r2 t))
        pairs;
      Relation.equal r1 r2)

(* [of_tuples] against one [add] per tuple: the same tuples in the same
   order, the same cardinal, and the same exception at the first tuple
   of a wrong arity.  Long lists over a small domain cross the 4,096
   tuple runs with duplicates on both sides of a boundary. *)
let prop_of_tuples_is_adds =
  let any2 = QCheck.Gen.map2 (fun a b -> tup [ a; b ]) value_gen value_gen
  and few2 =
    QCheck.Gen.(map (fun i -> tup [ v_int i; v_int (i mod 7) ]) (0 -- 3000))
  in
  let gen =
    QCheck.Gen.(
      triple
        (frequency
           [ (4, list_size (0 -- 40) any2);
             (1, list_size (4000 -- 9000) few2) ])
        (opt (pair (0 -- 9000) tuple_gen))
        (0 -- 1))
  in
  let print (ts, bad, _) =
    Printf.sprintf "%d tuples, bad %s" (List.length ts)
      (match bad with
       | Some (i, t) -> Format.asprintf "%a at %d" Tuple.pp t i
       | None -> "none")
  in
  QCheck.Test.make ~name:"Relation.of_tuples = one add per tuple" ~count:60
    (QCheck.make ~print gen) (fun (ts, bad, twice) ->
      let ts =
        match bad with
        | Some (i, t) ->
          List.filteri (fun j _ -> j < i) ts
          @ (t :: List.filteri (fun j _ -> j >= i) ts)
        | None -> ts
      in
      let ts = if twice = 1 then ts @ ts else ts in
      let result f =
        match f () with
        | r -> Ok (Relation.to_list r, Relation.cardinal r)
        | exception Invalid_argument m -> Error m
      in
      result (fun () ->
          let r = Relation.create schema_ab in
          List.iter (fun t -> ignore (Relation.add r t)) ts;
          r)
      = result (fun () -> Relation.of_tuples schema_ab ts))

let prop_csv_roundtrip =
  QCheck.Test.make ~name:"CSV relation roundtrip" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_bound 15)
       (QCheck.pair value_arb value_arb))
    (fun rows ->
      let schema = Rel_schema.of_names "p" [ "a"; "b" ] in
      let r =
        Relation.of_tuples schema (List.map (fun (a, b) -> tup [ a; b ]) rows)
      in
      match Csv_io.relation_of_string_result ~name:"p"
              (Csv_io.relation_to_string r)
      with
      | Error _ -> false
      | Ok r' -> Tuple.Set.equal (Relation.to_set r) (Relation.to_set r'))

(* Values that stress comparison and hashing: symbols that are one
   shared string or a fresh copy of it (empty and quoted ones among
   them), the integer extremes, the float specials and nulls. *)
let symbols = [| ""; "a"; "Tom Waits"; "\"q\""; "w1" |]

(* an equal value in a new block, with a new string for a symbol *)
let copy_value = function
  | Value.Sym { name; _ } -> Value.sym (Bytes.to_string (Bytes.of_string name))
  | Value.Int i -> Value.int i
  | Value.Real r -> Value.real r
  | Value.Null n -> Value.null n

let edge_value_gen =
  QCheck.Gen.(
    oneof
      [ map (fun s -> Value.sym s) (oneofa symbols);
        map copy_value (map (fun s -> Value.sym s) (oneofa symbols));
        map Value.int (oneofl [ min_int; max_int; -1; 0; 1 ]);
        map Value.real
          (oneofl [ nan; -0.0; 0.0; infinity; neg_infinity; 1.5 ]);
        map (fun n -> Value.null n) (0 -- 2) ])

(* A pair of tuples, the second either independent (any arity) or made
   from the first position by position: the same value, an equal copy
   or another value. *)
let edge_tuple_pair_gen =
  let open QCheck.Gen in
  let tuple = list_size (0 -- 4) edge_value_gen in
  let derive a =
    flatten_l
      (List.map
         (fun v -> oneof [ return v; return (copy_value v); edge_value_gen ])
         a)
  in
  tuple >>= fun a ->
  map
    (fun b -> (Tuple.of_list a, Tuple.of_list b))
    (oneof [ tuple; derive a ])

let edge_tuple_pair_arb =
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "%a %a" Tuple.pp a Tuple.pp b)
    edge_tuple_pair_gen

let sign c = Int.compare c 0

(* the order tuples are defined to have: arity, then each position *)
let reference_compare a b =
  match Int.compare (Tuple.arity a) (Tuple.arity b) with
  | 0 ->
    List.fold_left2
      (fun c x y -> if c <> 0 then c else Value.compare x y)
      0 (Tuple.to_list a) (Tuple.to_list b)
  | c -> c

let prop_tuple_compare_hash =
  QCheck.Test.make ~name:"Tuple compare/equal/hash agree with the order"
    ~count:2000 edge_tuple_pair_arb (fun (a, b) ->
      let c = Tuple.compare a b in
      sign c = sign (reference_compare a b)
      && sign (Tuple.compare b a) = - sign c
      && Tuple.equal a b = (c = 0)
      && ((not (Tuple.equal a b)) || Tuple.hash a = Tuple.hash b))

let prop_value_equal_hash =
  QCheck.Test.make ~name:"Value equal/hash agree with compare" ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> Value.to_string a ^ " " ^ Value.to_string b)
       QCheck.Gen.(
         edge_value_gen >>= fun a ->
         map (fun b -> (a, b))
           (oneof [ return a; return (copy_value a); edge_value_gen ])))
    (fun (a, b) ->
      Value.equal a b = (Value.compare a b = 0)
      && ((not (Value.equal a b)) || Value.hash a = Value.hash b))

(* the flat count against a set of each position's values *)
let prop_distinct_exact =
  QCheck.Test.make ~name:"Relation.distinct counts exactly" ~count:300
    (QCheck.make
       ~print:(Format.asprintf "%a" (Format.pp_print_list Tuple.pp))
       QCheck.Gen.(
         list_size (0 -- 300)
           (map Tuple.of_list (list_repeat 2 edge_value_gen))))
    (fun ts ->
      let r = Relation.of_tuples (Rel_schema.of_names "r" [ "a"; "b" ]) ts in
      List.for_all
        (fun p ->
          Relation.distinct r p
          = Value.Set.cardinal
              (Relation.fold (fun t s -> Value.Set.add (Tuple.get t p) s) r
                 Value.Set.empty))
        [ 0; 1 ])

(* An interner is one load: a spelling is one value in it, and in
   another load an equal value that is not the same one; a bare [sym]
   is equal to both.  A CSV file is one load. *)
let test_value_interned () =
  let load = Value.interner () and other = Value.interner () in
  let a = load "Tom Waits" in
  Alcotest.(check bool) "one value per spelling" true
    (a == load (String.concat " " [ "Tom"; "Waits" ]));
  List.iter
    (fun (what, b) ->
      Alcotest.(check bool) (what ^ ": another value") true (a != b);
      Alcotest.(check bool) (what ^ ": equal") true (Value.equal a b);
      Alcotest.(check int) (what ^ ": compare") 0 (Value.compare a b);
      Alcotest.(check int) (what ^ ": hash") (Value.hash a) (Value.hash b))
    [ ("another load", other "Tom Waits"); ("bare sym", Value.sym "Tom Waits") ];
  match Csv_io.relation_of_string_result ~name:"m" "a,b\nx,y\ny,x\n" with
  | Ok r -> (
    match Relation.to_list r with
    | [ t; t' ] ->
      Alcotest.(check bool) "csv: one value per spelling" true
        (Tuple.get t 0 == Tuple.get t' 1 && Tuple.get t 1 == Tuple.get t' 0)
    | _ -> Alcotest.fail "two rows expected")
  | Error _ -> Alcotest.fail "clean CSV rejected"

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_value_compare_total; prop_value_roundtrip; prop_tuple_project_id;
      prop_relation_add_idempotent; prop_of_tuples_is_adds; prop_csv_roundtrip;
      prop_tuple_compare_hash; prop_value_equal_hash; prop_distinct_exact ]

let case name f = Alcotest.test_case name `Quick f

let suites =
  [ ( "relational.value",
      [ case "ordering across kinds" test_value_order;
        case "null predicates" test_value_null_predicates;
        case "string roundtrip" test_value_string_roundtrip;
        case "of_string surface forms" test_value_of_string_forms;
        case "to_string prints as pp" test_value_to_string_is_pp;
        case "numeric spellings stay symbols" test_value_numeric_symbols;
        case "fresh null generator" test_fresh_gen;
        case "symbols are shared within a load" test_value_interned ] );
    ( "relational.tuple",
      [ case "basic access and update" test_tuple_basic;
        case "project and append" test_tuple_project_append;
        case "has_null" test_tuple_has_null;
        case "bounds checking" test_tuple_bounds ] );
    ( "relational.relation",
      [ case "add/mem/cardinal" test_relation_add_mem;
        case "arity enforcement" test_relation_arity_check;
        case "indexed scan" test_relation_scan;
        case "scan after insert" test_relation_scan_after_add;
        case "probe [] lists every tuple" test_probe_empty_key;
        case "composite probe is exact" test_probe_composite_exact;
        case "composite index after remove/add/substitute"
          test_probe_composite_after_mutation;
        case "distinct counts" test_distinct_counts;
        case "substitute merges nulls" test_relation_substitute;
        case "remove" test_relation_remove;
        case "union shares sets without aliasing" test_relation_union_shares
      ] );
    ( "relational.instance",
      [ case "declare idempotent + clash" test_instance_declare;
        case "copy independence" test_instance_copy_independent;
        case "merge_into" test_instance_merge ] );
    ( "relational.io",
      [ case "table render" test_table_render;
        case "table ragged rejected" test_table_render_ragged_rejected;
        case "csv roundtrip" test_csv_roundtrip;
        case "csv file roundtrip" test_csv_file_roundtrip;
        case "csv malformed input" test_csv_malformed;
        case "csv quoting" test_csv_quoting;
        case "csv numeric-looking symbols" test_csv_numeric_symbols ] );
    ("relational.properties", qcheck_cases) ]
