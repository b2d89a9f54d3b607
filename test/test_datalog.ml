(* Tests for the Datalog± engine: unification, evaluation, chase,
   syntactic classes, separability, top-down proof search, rewriting,
   parser/pretty round-trips. *)

open Mdqa_datalog
module R = Mdqa_relational

let v = Term.var
let s = Term.sym
let atom p args = Atom.make p args
let tuple_testable = Alcotest.testable R.Tuple.pp R.Tuple.equal

let tuples_of_strings rows =
  List.map (fun r -> R.Tuple.of_list (List.map R.Value.sym r)) rows

let instance_of bindings =
  let inst = R.Instance.create () in
  List.iter
    (fun (name, arity, rows) ->
      ignore
        (R.Instance.declare inst
           (R.Rel_schema.of_names name (List.init arity (Printf.sprintf "c%d"))));
      List.iter
        (fun row -> ignore (R.Instance.add_tuple inst name row))
        (tuples_of_strings rows))
    bindings;
  inst

(* ------------------------------------------------------------------ *)
(* Unify / Subst *)

let test_unify_basic () =
  let a = atom "p" [ v "X"; s "a" ] and b = atom "p" [ s "b"; v "Y" ] in
  match Unify.unify a b with
  | None -> Alcotest.fail "expected unifier"
  | Some sub ->
    Alcotest.(check bool) "X -> b" true
      (Term.equal (Subst.walk sub (v "X")) (s "b"));
    Alcotest.(check bool) "Y -> a" true
      (Term.equal (Subst.walk sub (v "Y")) (s "a"))

let test_unify_clash () =
  Alcotest.(check bool) "constant clash" true
    (Unify.unify (atom "p" [ s "a" ]) (atom "p" [ s "b" ]) = None);
  Alcotest.(check bool) "pred mismatch" true
    (Unify.unify (atom "p" [ v "X" ]) (atom "q" [ v "X" ]) = None);
  Alcotest.(check bool) "arity mismatch" true
    (Unify.unify (atom "p" [ v "X" ]) (atom "p" [ v "X"; v "Y" ]) = None)

let test_unify_shared_var () =
  (* p(X, X) with p(a, Y): X->a, Y->a *)
  match Unify.unify (atom "p" [ v "X"; v "X" ]) (atom "p" [ s "a"; v "Y" ]) with
  | None -> Alcotest.fail "expected unifier"
  | Some sub ->
    Alcotest.(check bool) "Y via X" true
      (Term.equal (Subst.walk sub (v "Y")) (s "a"))

let test_match_one_way () =
  (* match_against binds only pattern vars *)
  Alcotest.(check bool) "target var not bindable" true
    (Unify.match_against ~pattern:(atom "p" [ s "a" ]) (atom "p" [ v "X" ])
     = None);
  Alcotest.(check bool) "pattern var binds" true
    (Unify.match_against ~pattern:(atom "p" [ v "X" ]) (atom "p" [ s "a" ])
     <> None)

let test_subst_conflict () =
  let sub = Subst.bind_exn Subst.empty "X" (s "a") in
  Alcotest.(check bool) "rebind same ok" true (Subst.bind sub "X" (s "a") <> None);
  Alcotest.(check bool) "rebind different fails" true
    (Subst.bind sub "X" (s "b") = None)

(* ------------------------------------------------------------------ *)
(* Eval *)

let edge_inst =
  instance_of [ ("e", 2, [ [ "a"; "b" ]; [ "b"; "c" ]; [ "c"; "d" ] ]) ]

let test_eval_join () =
  (* e(X,Y), e(Y,Z): paths of length 2 *)
  let body = [ atom "e" [ v "X"; v "Y" ]; atom "e" [ v "Y"; v "Z" ] ] in
  let answers = Eval.answers edge_inst body in
  Alcotest.(check int) "two paths" 2 (List.length answers)

let test_eval_constants_in_atoms () =
  let body = [ atom "e" [ s "a"; v "Y" ] ] in
  let answers = Eval.answers edge_inst body in
  Alcotest.(check int) "one" 1 (List.length answers);
  Alcotest.(check bool) "Y=b" true
    (Term.equal (Subst.walk (List.hd answers) (v "Y")) (s "b"))

let test_eval_cmps () =
  let body = [ atom "e" [ v "X"; v "Y" ] ] in
  let cmps = [ Atom.Cmp.make Atom.Cmp.Neq (v "X") (s "a") ] in
  Alcotest.(check int) "filtered" 2 (List.length (Eval.answers ~cmps edge_inst body))

let test_eval_missing_pred () =
  Alcotest.(check int) "no such pred" 0
    (List.length (Eval.answers edge_inst [ atom "zzz" [ v "X" ] ]))

(* The semi-naive matches of [body] as substitutions, the delta being
   the facts satisfying [delta]. *)
let delta_answers ?cmps inst ~delta body =
  let vars = Eval.slot_vars body and out = ref [] in
  let delta pred =
    match R.Instance.find inst pred with
    | Some rel -> List.filter (delta pred) (R.Relation.to_list rel)
    | None -> []
  in
  Eval.iter_matches ?cmps ~delta inst body (fun slots ->
      out :=
        Subst.of_list
          (Array.to_list
             (Array.mapi (fun i x -> (x, Term.Const slots.(i))) vars))
        :: !out);
  List.rev !out

let test_eval_delta () =
  (* delta = {e(b,c)}: matches of e(X,Y),e(Y,Z) using it *)
  let delta pred t =
    pred = "e"
    && R.Tuple.equal t (R.Tuple.of_list [ R.Value.sym "b"; R.Value.sym "c" ])
  in
  let body = [ atom "e" [ v "X"; v "Y" ]; atom "e" [ v "Y"; v "Z" ] ] in
  let ds = delta_answers edge_inst ~delta body in
  (* (a,b,c) uses it as second atom, (b,c,d) as first: both qualify *)
  Alcotest.(check int) "both matches involve delta" 2 (List.length ds);
  let none pred' t =
    ignore pred';
    ignore t;
    false
  in
  Alcotest.(check int) "empty delta, no matches" 0
    (List.length (delta_answers edge_inst ~delta:none body))

(* ------------------------------------------------------------------ *)
(* Chase *)

(* Rules are named after their heads unless a test names them. *)
let tgd ?name body head =
  let name =
    Option.value name ~default:(String.concat "," (List.map Atom.pred head))
  in
  Tgd.make ~name ~body ~head ()

let test_chase_transitive_closure () =
  let p =
    Program.make
      ~tgds:
        [ tgd [ atom "e" [ v "X"; v "Y" ] ] [ atom "t" [ v "X"; v "Y" ] ];
          tgd
            [ atom "e" [ v "X"; v "Y" ]; atom "t" [ v "Y"; v "Z" ] ]
            [ atom "t" [ v "X"; v "Z" ] ] ]
      ()
  in
  let r = Chase.run p edge_inst in
  Alcotest.(check bool) "saturated" true (r.Chase.outcome = Chase.Saturated);
  let t = R.Instance.get r.Chase.instance "t" in
  (* closure of a->b->c->d: 3+2+1 = 6 pairs *)
  Alcotest.(check int) "closure size" 6 (R.Relation.cardinal t)

let test_chase_semi_naive_agrees () =
  let p =
    Program.make
      ~tgds:
        [ tgd [ atom "e" [ v "X"; v "Y" ] ] [ atom "t" [ v "X"; v "Y" ] ];
          tgd
            [ atom "t" [ v "X"; v "Y" ]; atom "t" [ v "Y"; v "Z" ] ]
            [ atom "t" [ v "X"; v "Z" ] ] ]
      ()
  in
  let r1 = Chase.run ~semi_naive:true p edge_inst in
  let r2 = Chase.run ~semi_naive:false p edge_inst in
  Alcotest.(check bool) "same instance" true
    (R.Instance.equal r1.Chase.instance r2.Chase.instance)

let test_chase_existential_nulls () =
  (* person(X) -> ∃Y father(X,Y) *)
  let p =
    Program.make
      ~tgds:[ tgd [ atom "person" [ v "X" ] ] [ atom "father" [ v "X"; v "Y" ] ] ]
      ()
  in
  let inst = instance_of [ ("person", 1, [ [ "ann" ]; [ "bob" ] ]) ] in
  let r = Chase.run p inst in
  Alcotest.(check bool) "saturated" true (r.Chase.outcome = Chase.Saturated);
  Alcotest.(check int) "two nulls" 2 r.Chase.stats.Chase.nulls_created;
  let father = R.Instance.get r.Chase.instance "father" in
  Alcotest.(check int) "two facts" 2 (R.Relation.cardinal father);
  R.Relation.iter
    (fun t -> Alcotest.(check bool) "null in pos 1" true
        (R.Value.is_null (R.Tuple.get t 1)))
    father

let test_chase_restricted_skips_satisfied () =
  (* person(X) -> ∃Y father(X,Y); ann already has a father *)
  let p =
    Program.make
      ~tgds:[ tgd [ atom "person" [ v "X" ] ] [ atom "father" [ v "X"; v "Y" ] ] ]
      ()
  in
  let inst =
    instance_of
      [ ("person", 1, [ [ "ann" ] ]); ("father", 2, [ [ "ann"; "carl" ] ]) ]
  in
  let r = Chase.run ~variant:Chase.Restricted p inst in
  Alcotest.(check int) "no nulls" 0 r.Chase.stats.Chase.nulls_created;
  let r2 = Chase.run ~variant:Chase.Oblivious p inst in
  Alcotest.(check int) "oblivious fires anyway" 1
    r2.Chase.stats.Chase.nulls_created

let test_chase_budget_on_divergent () =
  (* r(X,Y) -> ∃Z r(Y,Z): infinite chase, must stop on budget *)
  let p =
    Program.make
      ~tgds:
        [ tgd [ atom "r" [ v "X"; v "Y" ] ] [ atom "r" [ v "Y"; v "Z" ] ] ]
      ()
  in
  let inst = instance_of [ ("r", 2, [ [ "a"; "b" ] ]) ] in
  let r = Chase.run ~guard:(Guard.create ~max_nulls:50 ()) p inst in
  Alcotest.(check bool) "out of null budget" true
    (match r.Chase.outcome with
     | Chase.Out_of_budget { Guard.resource = Guard.Nulls; _ } -> true
     | _ -> false)

let test_chase_egd_merges_null () =
  (* emp(X) -> ∃D dept(X,D); EGD: dept(X,D1), dept(X,D2) -> D1=D2 with
     an extensional dept fact: the invented null must merge into it. *)
  let p =
    Program.make
      ~tgds:[ tgd [ atom "emp" [ v "X" ] ] [ atom "dept" [ v "X"; v "D" ] ] ]
      ~egds:
        [ Egd.make
            ~body:[ atom "dept" [ v "X"; v "D1" ]; atom "dept" [ v "X"; v "D2" ] ]
            (v "D1") (v "D2") ]
      ()
  in
  let inst =
    instance_of [ ("emp", 1, [ [ "ann" ] ]); ("dept", 2, [ [ "ann"; "hr" ] ]) ]
  in
  (* restricted chase never fires (head satisfied); force the
     interesting case with the oblivious variant *)
  let r = Chase.run ~variant:Chase.Oblivious p inst in
  Alcotest.(check bool) "saturated" true (r.Chase.outcome = Chase.Saturated);
  let dept = R.Instance.get r.Chase.instance "dept" in
  Alcotest.(check int) "merged to one fact" 1 (R.Relation.cardinal dept);
  Alcotest.(check bool) "no null remains" true
    (R.Relation.to_list dept |> List.for_all (fun t -> not (R.Tuple.has_null t)))

let test_chase_egd_constant_clash () =
  let p =
    Program.make
      ~egds:
        [ Egd.make
            ~body:[ atom "dept" [ v "X"; v "D1" ]; atom "dept" [ v "X"; v "D2" ] ]
            (v "D1") (v "D2") ]
      ()
  in
  let inst = instance_of [ ("dept", 2, [ [ "ann"; "hr" ]; [ "ann"; "it" ] ]) ] in
  let r = Chase.run p inst in
  (match r.Chase.outcome with
   | Chase.Failed (Chase.Egd_clash _) -> ()
   | o -> Alcotest.failf "expected EGD clash, got %a" Chase.pp_outcome o)

let test_chase_nc_violation () =
  let p =
    Program.make
      ~ncs:[ Nc.make [ atom "bad" [ v "X" ] ] ]
      ()
  in
  let inst = instance_of [ ("bad", 1, [ [ "x" ] ]) ] in
  let r = Chase.run p inst in
  (match r.Chase.outcome with
   | Chase.Failed (Chase.Nc_violation _) -> ()
   | o -> Alcotest.failf "expected NC violation, got %a" Chase.pp_outcome o)

let test_chase_nc_with_cmp () =
  let p =
    Program.make
      ~ncs:
        [ Nc.make
            ~cmps:[ Atom.Cmp.make Atom.Cmp.Gt (v "X") (Term.int 10) ]
            [ atom "m" [ v "X" ] ] ]
      ()
  in
  let ok = R.Instance.create () in
  ignore (R.Instance.declare ok (R.Rel_schema.of_names "m" [ "a" ]));
  ignore (R.Instance.add_tuple ok "m" (R.Tuple.of_list [ R.Value.int 5 ]));
  Alcotest.(check bool) "below threshold fine" true
    ((Chase.run p ok).Chase.outcome = Chase.Saturated);
  ignore (R.Instance.add_tuple ok "m" (R.Tuple.of_list [ R.Value.int 20 ]));
  (match (Chase.run p ok).Chase.outcome with
   | Chase.Failed (Chase.Nc_violation _) -> ()
   | o -> Alcotest.failf "expected violation, got %a" Chase.pp_outcome o)

let test_chase_input_not_mutated () =
  let p =
    Program.make
      ~tgds:[ tgd [ atom "person" [ v "X" ] ] [ atom "copy" [ v "X" ] ] ]
      ()
  in
  let inst = instance_of [ ("person", 1, [ [ "ann" ] ]) ] in
  ignore (Chase.run p inst);
  Alcotest.(check bool) "no copy relation in input" true
    (R.Instance.find inst "copy" = None)

let test_chase_multi_atom_head_shares_null () =
  (* discharge(I,P) -> ∃U inst_unit(I,U), patient_unit(U,P) *)
  let p =
    Program.make
      ~tgds:
        [ tgd
            [ atom "discharge" [ v "I"; v "P" ] ]
            [ atom "inst_unit" [ v "I"; v "U" ];
              atom "patient_unit" [ v "U"; v "P" ] ] ]
      ()
  in
  let inst = instance_of [ ("discharge", 2, [ [ "h1"; "tom" ] ]) ] in
  let r = Chase.run p inst in
  Alcotest.(check int) "one null" 1 r.Chase.stats.Chase.nulls_created;
  let iu = R.Instance.get r.Chase.instance "inst_unit" in
  let pu = R.Instance.get r.Chase.instance "patient_unit" in
  let null_of rel pos =
    match R.Relation.to_list rel with
    | [ t ] -> R.Tuple.get t pos
    | _ -> Alcotest.fail "expected singleton"
  in
  Alcotest.(check bool) "same null shared" true
    (R.Value.equal (null_of iu 1) (null_of pu 0))

(* b(X), c(X) :- a(X): a ground two-atom head, whose check is its
   inserts.  [present] are the head atoms the instance already holds. *)
let two_head_run present =
  let p =
    Program.make
      ~tgds:
        [ tgd [ atom "a" [ v "X" ] ] [ atom "b" [ v "X" ]; atom "c" [ v "X" ] ] ]
      ()
  in
  let inst =
    instance_of
      (("a", 1, [ [ "k" ] ])
       :: List.map (fun h -> (h, 1, [ [ "k" ] ])) present)
  in
  let guard = Guard.unlimited () in
  let r = Chase.run ~guard p inst in
  Alcotest.(check bool) "saturated" true (r.Chase.outcome = Chase.Saturated);
  Alcotest.(check int) "one trigger" 1 r.Chase.stats.Chase.triggers_checked;
  (r, (Guard.consumption guard).Guard.rows)

let test_chase_ground_head_adds_missing () =
  let r, _ = two_head_run [ "b" ] in
  Alcotest.(check int) "fires once" 1 r.Chase.stats.Chase.tgd_fires;
  Alcotest.(check int) "adds only c(k)" 3
    (R.Instance.total_tuples r.Chase.instance);
  Alcotest.(check bool) "c(k) derived" true
    (R.Relation.mem
       (R.Instance.get r.Chase.instance "c")
       (R.Tuple.of_list [ R.Value.sym "k" ]))

let test_chase_ground_head_satisfied () =
  let r, rows = two_head_run [ "b"; "c" ] in
  Alcotest.(check int) "no fire" 0 r.Chase.stats.Chase.tgd_fires;
  Alcotest.(check int) "nothing added" 3
    (R.Instance.total_tuples r.Chase.instance);
  Alcotest.(check int) "one round" 1 r.Chase.stats.Chase.rounds;
  (* the body match, then the satisfied head *)
  Alcotest.(check int) "two rows" 2 rows

(* ------------------------------------------------------------------ *)
(* Classes *)

(* σ: t(X,Z) :- r(X,Y), s(Y,Z) — not sticky (marked Y repeated) but WS *)
let prog_join =
  Program.make
    ~tgds:
      [ tgd
          [ atom "r" [ v "X"; v "Y" ]; atom "s" [ v "Y"; v "Z" ] ]
          [ atom "t" [ v "X"; v "Z" ] ] ]
    ()

(* σ: r(Y,Z) :- r(X,Y) with Z existential — linear, sticky, not WA *)
let prog_linear_cyclic =
  Program.make
    ~tgds:[ tgd [ atom "r" [ v "X"; v "Y" ] ] [ atom "r" [ v "Y"; v "Z" ] ] ]
    ()

(* adds s(X) :- r(X,Y), r(Y,X): marked repeated var at infinite-rank
   positions only — not weakly sticky *)
let prog_not_ws =
  Program.make
    ~tgds:
      [ tgd [ atom "r" [ v "X"; v "Y" ] ] [ atom "r" [ v "Y"; v "Z" ] ];
        tgd
          [ atom "r" [ v "X"; v "Y" ]; atom "r" [ v "Y"; v "X" ] ]
          [ atom "s" [ v "X" ] ] ]
    ()

let classes p = (Analysis.analyse p).Analysis.classes

let test_classes_join_program () =
  let c = classes prog_join in
  Alcotest.(check bool) "not linear" false c.Analysis.linear;
  Alcotest.(check bool) "not guarded" false c.Analysis.guarded;
  Alcotest.(check bool) "weakly guarded" true c.Analysis.weakly_guarded;
  Alcotest.(check bool) "not sticky" false c.Analysis.sticky;
  Alcotest.(check bool) "weakly sticky" true c.Analysis.weakly_sticky;
  Alcotest.(check bool) "weakly acyclic" true c.Analysis.weakly_acyclic

let test_classes_linear_cyclic () =
  let c = classes prog_linear_cyclic in
  Alcotest.(check bool) "linear" true c.Analysis.linear;
  Alcotest.(check bool) "guarded" true c.Analysis.guarded;
  Alcotest.(check bool) "sticky" true c.Analysis.sticky;
  Alcotest.(check bool) "weakly sticky" true c.Analysis.weakly_sticky;
  Alcotest.(check bool) "not weakly acyclic" false c.Analysis.weakly_acyclic

let test_classes_not_ws () =
  let a = Analysis.analyse prog_not_ws in
  Alcotest.(check bool) "not sticky" false a.Analysis.classes.Analysis.sticky;
  Alcotest.(check bool) "not weakly sticky" false
    a.Analysis.classes.Analysis.weakly_sticky;
  let viols = a.Analysis.violations in
  Alcotest.(check int) "one violation" 1 (List.length viols);
  Alcotest.(check string) "on Y" "Y" (snd (List.hd viols))

let test_warded () =
  let warded p = (classes p).Analysis.warded in
  (* full programs have no harmful variables: trivially warded *)
  Alcotest.(check bool) "join program warded" true (warded prog_join);
  (* linear rules are warded: the single body atom is the ward *)
  Alcotest.(check bool) "linear cyclic warded" true (warded prog_linear_cyclic);
  (* two dangerous variables spread over two atoms: not warded *)
  let not_warded =
    Program.make
      ~tgds:
        [ tgd [ atom "p" [ v "X"; v "Y" ] ] [ atom "p" [ v "Y"; v "Z" ] ];
          tgd
            [ atom "p" [ v "X"; v "Z1" ]; atom "p" [ v "Y"; v "Z2" ] ]
            [ atom "t" [ v "X"; v "Y" ] ] ]
      ()
  in
  Alcotest.(check bool) "split dangerous vars: not warded" false
    (warded not_warded)

let test_guarded_detection () =
  (* guard g(X,Y,Z) covers both body vars of the join *)
  let p =
    Program.make
      ~tgds:
        [ tgd
            [ atom "g" [ v "X"; v "Y"; v "Z" ]; atom "r" [ v "X"; v "Y" ] ]
            [ atom "t" [ v "X" ] ] ]
      ()
  in
  Alcotest.(check bool) "guarded" true (classes p).Analysis.guarded

let infinite_rank p =
  Analysis.Pos_set.elements (Analysis.analyse p).Analysis.infinite_rank

let test_position_graph_ranks () =
  (* no existentials: every position has finite rank *)
  Alcotest.(check int) "join: none infinite" 0
    (List.length (infinite_rank prog_join));
  Alcotest.(check bool) "r positions infinite" true
    (List.length (infinite_rank prog_linear_cyclic) = 2)

let test_position_graph_finite_special () =
  (* p(X) -> ∃Y q(X,Y): a special edge on no cycle, all ranks finite *)
  let p =
    Program.make
      ~tgds:[ tgd [ atom "p" [ v "X" ] ] [ atom "q" [ v "X"; v "Y" ] ] ]
      ()
  in
  Alcotest.(check bool) "weakly acyclic" true
    (classes p).Analysis.weakly_acyclic;
  Alcotest.(check (list (pair string int))) "no infinite rank" []
    (infinite_rank p)

let test_affected_positions () =
  (* p(X) -> ∃Y q(X,Y);  q(X,Y) -> t(Y): t[0] affected transitively *)
  let p =
    Program.make
      ~tgds:
        [ tgd [ atom "p" [ v "X" ] ] [ atom "q" [ v "X"; v "Y" ] ];
          tgd [ atom "q" [ v "X"; v "Y" ] ] [ atom "t" [ v "Y" ] ] ]
      ()
  in
  let a = Analysis.analyse p in
  let affected pos = Analysis.Pos_set.mem pos a.Analysis.affected in
  Alcotest.(check bool) "q[1] affected" true (affected ("q", 1));
  Alcotest.(check bool) "t[0] affected" true (affected ("t", 0));
  Alcotest.(check bool) "q[0] not affected" false (affected ("q", 0))

let test_separability () =
  (* EGD equating a variable at an affected position: not separable *)
  let p =
    Program.make
      ~tgds:[ tgd [ atom "p" [ v "X" ] ] [ atom "q" [ v "X"; v "Y" ] ] ]
      ~egds:
        [ Egd.make
            ~body:[ atom "q" [ v "X"; v "Y1" ]; atom "q" [ v "X"; v "Y2" ] ]
            (v "Y1") (v "Y2") ]
      ()
  in
  Alcotest.(check bool) "affected head: not separable" false
    (Analysis.analyse p).Analysis.egds.Analysis.separable;
  (* EGD on the key side only: separable *)
  let p2 =
    Program.make
      ~tgds:[ tgd [ atom "p" [ v "X" ] ] [ atom "q" [ v "X"; v "Y" ] ] ]
      ~egds:
        [ Egd.make
            ~body:[ atom "q" [ v "X1"; v "Y" ]; atom "q" [ v "X2"; v "Y" ] ]
            (v "X1") (v "X2") ]
      ()
  in
  Alcotest.(check bool) "non-affected heads: separable" true
    (Analysis.analyse p2).Analysis.egds.Analysis.separable;
  Alcotest.(check bool) "within categorical positions" true
    (Analysis.within_positions p2 ~closed:[ ("q", 0) ]).Analysis.separable

(* ------------------------------------------------------------------ *)
(* Query + certain answers *)

let test_query_certain_answers_filter_nulls () =
  (* person(X) -> ∃Y father(X,Y); ?q(Y) :- father(ann, Y) has no
     certain answer; ?q(X) :- father(X, Y) has ann *)
  let p =
    Program.make
      ~tgds:[ tgd [ atom "person" [ v "X" ] ] [ atom "father" [ v "X"; v "Y" ] ] ]
      ()
  in
  let inst = instance_of [ ("person", 1, [ [ "ann" ] ]) ] in
  let q1 = Query.make ~head:[ v "Y" ] [ atom "father" [ s "ann"; v "Y" ] ] in
  (match Answer.answer Answer.Chase p inst q1 with
   | Answer.Ok [] -> ()
   | Answer.Ok l -> Alcotest.failf "expected none, got %d" (List.length l)
   | _ -> Alcotest.fail "chase issue");
  let q2 = Query.make ~head:[ v "X" ] [ atom "father" [ v "X"; v "Y" ] ] in
  (match Answer.answer Answer.Chase p inst q2 with
   | Answer.Ok [ t ] ->
     Alcotest.check tuple_testable "ann"
       (R.Tuple.of_list [ R.Value.sym "ann" ]) t
   | _ -> Alcotest.fail "expected exactly ann")

let test_query_boolean_entailment () =
  let p =
    Program.make
      ~tgds:[ tgd [ atom "person" [ v "X" ] ] [ atom "father" [ v "X"; v "Y" ] ] ]
      ()
  in
  let inst = instance_of [ ("person", 1, [ [ "ann" ] ]) ] in
  let yes = Query.boolean [ atom "father" [ s "ann"; v "Y" ] ] in
  let no = Query.boolean [ atom "father" [ s "bob"; v "Y" ] ] in
  (* a boolean query's one certain answer is the empty tuple *)
  (match Answer.answer Answer.Chase p inst yes with
   | Answer.Ok l -> Alcotest.(check int) "entailed" 1 (List.length l)
   | _ -> Alcotest.fail "chase issue");
  (match Answer.answer Answer.Chase p inst no with
   | Answer.Ok l -> Alcotest.(check int) "not entailed" 0 (List.length l)
   | _ -> Alcotest.fail "chase issue")

let test_query_inconsistent () =
  let p = Program.make ~ncs:[ Nc.make [ atom "bad" [ v "X" ] ] ] () in
  let inst = instance_of [ ("bad", 1, [ [ "x" ] ]) ] in
  let q = Query.boolean [ atom "bad" [ v "X" ] ] in
  (match Answer.answer Answer.Chase p inst q with
   | Answer.Inconsistent _ -> ()
   | _ -> Alcotest.fail "expected Inconsistent")

(* ------------------------------------------------------------------ *)
(* Proof: DeterministicWSQAns *)

let test_proof_edb_only () =
  let p = Program.make () in
  let q = Query.make ~head:[ v "X" ] [ atom "e" [ v "X"; s "b" ] ] in
  let r = Proof.answer p edge_inst q in
  Alcotest.(check bool) "complete" true
    (Guard.degraded r = None);
  Alcotest.(check (list tuple_testable)) "a"
    [ R.Tuple.of_list [ R.Value.sym "a" ] ]
    (Guard.value r)

let test_proof_via_rule () =
  let p =
    Program.make
      ~tgds:
        [ tgd [ atom "e" [ v "X"; v "Y" ] ] [ atom "t" [ v "X"; v "Y" ] ];
          tgd
            [ atom "e" [ v "X"; v "Y" ]; atom "t" [ v "Y"; v "Z" ] ]
            [ atom "t" [ v "X"; v "Z" ] ] ]
      ()
  in
  let q = Query.make ~head:[ v "Z" ] [ atom "t" [ s "a"; v "Z" ] ] in
  let r = Proof.answer p edge_inst q in
  Alcotest.(check int) "b, c, d reachable" 3
    (List.length (Guard.value r))

let test_proof_existential_not_answer () =
  (* father invented by rule: entailed as BCQ but no certain answer *)
  let p =
    Program.make
      ~tgds:[ tgd [ atom "person" [ v "X" ] ] [ atom "father" [ v "X"; v "Y" ] ] ]
      ()
  in
  let inst = instance_of [ ("person", 1, [ [ "ann" ] ]) ] in
  Alcotest.(check bool) "BCQ holds" true
    (Proof.entails p inst (Query.boolean [ atom "father" [ s "ann"; v "Y" ] ]));
  let r =
    Proof.answer p inst
      (Query.make ~head:[ v "Y" ] [ atom "father" [ s "ann"; v "Y" ] ])
  in
  Alcotest.(check int) "no certain answer" 0
    (List.length (Guard.value r))

let test_proof_existential_blocks_constant () =
  (* the invented null cannot equal a constant *)
  let p =
    Program.make
      ~tgds:[ tgd [ atom "person" [ v "X" ] ] [ atom "father" [ v "X"; v "Y" ] ] ]
      ()
  in
  let inst = instance_of [ ("person", 1, [ [ "ann" ] ]) ] in
  Alcotest.(check bool) "father(ann, carl) not entailed" false
    (Proof.entails p inst (Query.boolean [ atom "father" [ s "ann"; s "carl" ] ]))

let test_proof_multi_atom_head_lemma () =
  (* discharge(I,P) -> ∃U iu(I,U), pu(U,P).
     BCQ ?- iu(h1,U), pu(U,tom) needs the shared null: provable only
     via the sibling-lemma mechanism. *)
  let p =
    Program.make
      ~tgds:
        [ tgd
            [ atom "discharge" [ v "I"; v "P" ] ]
            [ atom "iu" [ v "I"; v "U" ]; atom "pu" [ v "U"; v "P" ] ] ]
      ()
  in
  let inst = instance_of [ ("discharge", 2, [ [ "h1"; "tom" ] ]) ] in
  Alcotest.(check bool) "joint query entailed" true
    (Proof.entails p inst
       (Query.boolean [ atom "iu" [ s "h1"; v "U" ]; atom "pu" [ v "U"; s "tom" ] ]));
  Alcotest.(check bool) "wrong patient rejected" false
    (Proof.entails p inst
       (Query.boolean [ atom "iu" [ s "h1"; v "U" ]; atom "pu" [ v "U"; s "bob" ] ]))

let test_proof_agrees_with_chase () =
  let p =
    Program.make
      ~tgds:
        [ tgd [ atom "e" [ v "X"; v "Y" ] ] [ atom "t" [ v "X"; v "Y" ] ];
          tgd
            [ atom "t" [ v "X"; v "Y" ]; atom "t" [ v "Y"; v "Z" ] ]
            [ atom "t" [ v "X"; v "Z" ] ] ]
      ()
  in
  let q = Query.make ~head:[ v "X"; v "Z" ] [ atom "t" [ v "X"; v "Z" ] ] in
  let via_chase =
    match Answer.answer Answer.Chase p edge_inst q with
    | Answer.Ok l -> l
    | _ -> Alcotest.fail "chase failed"
  in
  let via_proof = Guard.value (Proof.answer p edge_inst q) in
  Alcotest.(check (list tuple_testable)) "same answers" via_chase via_proof

(* ------------------------------------------------------------------ *)
(* Rewrite *)

let test_rewrite_simple_unfold () =
  (* pu(U,P) :- pw(W,P), uw(U,W): query over pu rewrites to EDB *)
  let p =
    Program.make
      ~tgds:
        [ tgd
            [ atom "pw" [ v "W"; v "P" ]; atom "uw" [ v "U"; v "W" ] ]
            [ atom "pu" [ v "U"; v "P" ] ] ]
      ()
  in
  Alcotest.(check bool) "rewrite in scope" true
    (Analysis.scope (Analysis.analyse p) Analysis.Rewrite = Ok ());
  let q = Query.make ~head:[ v "P" ] [ atom "pu" [ s "std"; v "P" ] ] in
  (match Rewrite.rewrite p q with
   | Guard.Complete r ->
     Alcotest.(check int) "two disjuncts" 2 (List.length r.Rewrite.ucq)
   | Guard.Degraded (_, e) ->
     Alcotest.failf "degraded: %s" (Guard.resource_name e.Guard.resource));
  let inst =
    instance_of
      [ ("pw", 2, [ [ "w1"; "tom" ]; [ "w3"; "lou" ] ]);
        ("uw", 2, [ [ "std"; "w1" ]; [ "int"; "w3" ] ]);
        ("pu", 2, [ [ "std"; "amy" ] ]) ]
  in
  (match Rewrite.answers p inst q with
   | Guard.Complete answers ->
     Alcotest.(check (list tuple_testable)) "tom via rule + amy extensional"
       (List.sort R.Tuple.compare
          [ R.Tuple.of_list [ R.Value.sym "tom" ];
            R.Tuple.of_list [ R.Value.sym "amy" ] ])
       answers
   | Guard.Degraded (_, e) ->
     Alcotest.failf "degraded: %s" (Guard.resource_name e.Guard.resource))

let test_rewrite_matches_chase () =
  let p =
    Program.make
      ~tgds:
        [ tgd
            [ atom "pw" [ v "W"; v "P" ]; atom "uw" [ v "U"; v "W" ] ]
            [ atom "pu" [ v "U"; v "P" ] ];
          tgd [ atom "pu" [ v "U"; v "P" ] ] [ atom "inpat" [ v "P" ] ] ]
      ()
  in
  let inst =
    instance_of
      [ ("pw", 2, [ [ "w1"; "tom" ]; [ "w2"; "lou" ] ]);
        ("uw", 2, [ [ "std"; "w1" ]; [ "std"; "w2" ] ]);
        ("pu", 2, []); ("inpat", 1, []) ]
  in
  let q = Query.make ~head:[ v "P" ] [ atom "inpat" [ v "P" ] ] in
  let via_chase =
    match Answer.answer Answer.Chase p inst q with
    | Answer.Ok l -> l
    | _ -> Alcotest.fail "chase failed"
  in
  (match Rewrite.answers p inst q with
   | Guard.Complete via_rw ->
     Alcotest.(check (list tuple_testable)) "agree" via_chase via_rw
   | Guard.Degraded (_, e) ->
     Alcotest.failf "degraded: %s" (Guard.resource_name e.Guard.resource))

let test_rewrite_existential_applicability () =
  (* ws(U,N) -> ∃Z shifts(U,N,Z).  Query with unshared var Z unfolds;
     query with constant at Z's position must not. *)
  let p =
    Program.make
      ~tgds:
        [ tgd
            [ atom "ws" [ v "U"; v "N" ] ]
            [ atom "shifts" [ v "U"; v "N"; v "Z" ] ] ]
      ()
  in
  let inst =
    instance_of [ ("ws", 2, [ [ "std"; "mark" ] ]); ("shifts", 3, []) ]
  in
  let q_free =
    Query.make ~head:[ v "U" ] [ atom "shifts" [ v "U"; s "mark"; v "Z" ] ]
  in
  (match Rewrite.answers p inst q_free with
   | Guard.Complete [ t ] ->
     Alcotest.check tuple_testable "std" (R.Tuple.of_list [ R.Value.sym "std" ]) t
   | Guard.Complete l ->
     Alcotest.failf "expected one answer, got %d" (List.length l)
   | Guard.Degraded (_, e) ->
     Alcotest.failf "degraded: %s" (Guard.resource_name e.Guard.resource));
  let q_const =
    Query.make ~head:[ v "U" ] [ atom "shifts" [ v "U"; s "mark"; s "night" ] ]
  in
  (match Rewrite.answers p inst q_const with
   | Guard.Complete [] -> ()
   | Guard.Complete l ->
     Alcotest.failf "expected no answers, got %d" (List.length l)
   | Guard.Degraded (_, e) ->
     Alcotest.failf "degraded: %s" (Guard.resource_name e.Guard.resource))

let test_rewrite_cyclic_errors () =
  let p =
    Program.make
      ~tgds:
        [ tgd [ atom "p" [ v "X" ] ] [ atom "q" [ v "X" ] ];
          tgd [ atom "q" [ v "X" ] ] [ atom "p" [ v "X" ] ] ]
      ()
  in
  Alcotest.(check bool) "rewrite out of scope" true
    (Result.is_error (Analysis.scope (Analysis.analyse p) Analysis.Rewrite));
  let q = Query.make ~head:[ v "X" ] [ atom "p" [ v "X" ] ] in
  (* unfolding p <-> q actually reaches a fixpoint of 2 CQs here; the
     canonicalizer must recognize the alpha-equivalent repeats *)
  (match Rewrite.rewrite ~guard:(Guard.create ~max_cqs:50 ()) p q with
   | Guard.Complete r ->
     Alcotest.(check int) "two CQs" 2 (List.length r.Rewrite.ucq)
   | Guard.Degraded _ -> ())

(* ------------------------------------------------------------------ *)
(* Constructor validation *)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let test_constructor_validation () =
  Alcotest.(check bool) "empty TGD body" true
    (raises_invalid (fun () ->
         Tgd.make ~name:"empty_body" ~body:[] ~head:[ atom "p" [ v "X" ] ] ()));
  Alcotest.(check bool) "empty TGD head" true
    (raises_invalid (fun () ->
         Tgd.make ~name:"empty_head" ~body:[ atom "p" [ v "X" ] ] ~head:[] ()));
  Alcotest.(check bool) "EGD head var not in body" true
    (raises_invalid (fun () ->
         Egd.make ~body:[ atom "p" [ v "X" ] ] (v "X") (v "Z")));
  Alcotest.(check bool) "NC comparison var not in body" true
    (raises_invalid (fun () ->
         Nc.make
           ~cmps:[ Atom.Cmp.make Atom.Cmp.Gt (v "Z") (Term.int 1) ]
           [ atom "p" [ v "X" ] ]));
  Alcotest.(check bool) "query head var not in body" true
    (raises_invalid (fun () ->
         Query.make ~head:[ v "Z" ] [ atom "p" [ v "X" ] ]));
  Alcotest.(check bool) "program arity clash" true
    (raises_invalid (fun () ->
         Program.make
           ~facts:[ atom "p" [ s "a" ]; atom "p" [ s "a"; s "b" ] ]
           ()));
  Alcotest.(check bool) "non-ground program fact" true
    (raises_invalid (fun () -> Program.make ~facts:[ atom "p" [ v "X" ] ] ()))

let test_chase_trigger_budget () =
  (* max_steps bounds triggers even on terminating programs *)
  let p =
    Program.make
      ~tgds:[ tgd [ atom "e" [ v "X"; v "Y" ] ] [ atom "t" [ v "X"; v "Y" ] ] ]
      ()
  in
  let big =
    instance_of
      [ ("e", 2, List.init 50 (fun i -> [ Printf.sprintf "a%d" i; "b" ])) ]
  in
  let r = Chase.run ~guard:(Guard.create ~max_steps:10 ()) p big in
  Alcotest.(check bool) "step budget reported" true
    (match r.Chase.outcome with
     | Chase.Out_of_budget { Guard.resource = Guard.Steps; _ } -> true
     | _ -> false)

let test_chase_efficiency_guard () =
  (* regression guard: the linear copy chase checks no more triggers
     than a small multiple of the input *)
  let n = 500 in
  let p =
    Program.make
      ~tgds:[ tgd [ atom "e" [ v "X"; v "Y" ] ] [ atom "t" [ v "X"; v "Y" ] ] ]
      ()
  in
  let big =
    instance_of
      [ ("e", 2,
         List.init n (fun i ->
             [ Printf.sprintf "a%d" i; Printf.sprintf "b%d" i ])) ]
  in
  let r = Chase.run p big in
  Alcotest.(check bool) "saturated" true (r.Chase.outcome = Chase.Saturated);
  Alcotest.(check bool) "triggers linear in input" true
    (r.Chase.stats.Chase.triggers_checked <= 2 * n)

(* The egd-merge shape: [patients] over four days in four wards of two
   units, each patient discharged on one day.  Rule (9) in form (10)
   invents the unit of each discharge, rule (7) derives the known one
   by upward navigation, and "one unit per patient per day" merges the
   null into it: one null and one merge per patient. *)
let egd_merge_program ~patients =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  for w = 0 to 3 do add "unit_ward(u%d, w%d).\n" (w / 2) w done;
  add "institution_unit(h0, u0). institution_unit(h0, u1).\n";
  for p = 0 to patients - 1 do
    for d = 0 to 3 do add "patient_ward(w%d, d%d, p%d).\n" (p mod 4) d p done;
    add "discharge_patients(h0, d%d, p%d).\n" (p mod 4) p
  done;
  add
    "institution_unit(I, U), patient_unit(U, D, P) :- discharge_patients(I, D, P).\n\
     patient_unit(U, D, P) :- patient_ward(W, D, P), unit_ward(U, W).\n\
     U1 = U2 :- patient_unit(U1, D, P), patient_unit(U2, D, P).\n";
  (Parser.parse_string (Buffer.contents b)).Parser.program

(* EGD work grows with the merges, not with merges times the instance:
   the rows the guard counts may grow at most 1.15 times as fast as the
   input (here 52 -> 104 rows for 26 -> 46 facts).  One merge at a time,
   each rescanning every EGD body, is quadratic: 186 -> 548 rows. *)
let test_egd_merge_rows_scale () =
  let rows patients =
    let p = egd_merge_program ~patients in
    let guard = Guard.unlimited () in
    let r = Chase.run ~guard p (Program.instance_of_facts p) in
    Alcotest.(check bool) "saturated" true (r.Chase.outcome = Chase.Saturated);
    Alcotest.(check int) "one merge per patient" patients
      r.Chase.stats.Chase.egd_merges;
    ( R.Instance.total_tuples (Program.instance_of_facts p),
      (Guard.consumption guard).Guard.rows )
  in
  let small_facts, small = rows 4 and big_facts, big = rows 8 in
  let input = float big_facts /. float small_facts in
  Alcotest.(check bool)
    (Printf.sprintf "rows %d -> %d within 1.15 x input ratio %.2f" small big input)
    true
    (float big /. float small <= 1.15 *. input)

(* ------------------------------------------------------------------ *)
(* Budgets and truncation behaviour *)

let test_proof_depth_budget () =
  (* transitive closure over a chain: within the depth bound of 32 the
     search is complete; over the 40-edge chain it misses the distant
     answers, and both the depth bound and a guard's step budget report
     the answer set as partial *)
  let chain n =
    instance_of
      [ ("e", 2,
         List.init n (fun i ->
             [ Printf.sprintf "n%d" i; Printf.sprintf "n%d" (i + 1) ])) ]
  in
  let p =
    Program.make
      ~tgds:
        [ tgd [ atom "e" [ v "X"; v "Y" ] ] [ atom "t" [ v "X"; v "Y" ] ];
          tgd
            [ atom "e" [ v "X"; v "Y" ]; atom "t" [ v "Y"; v "Z" ] ]
            [ atom "t" [ v "X"; v "Z" ] ] ]
      ()
  in
  let q = Query.make ~head:[ v "Z" ] [ atom "t" [ s "n0"; v "Z" ] ] in
  let deep = Proof.answer p (chain 10) q in
  Alcotest.(check int) "all 10 reachable" 10
    (List.length (Guard.value deep));
  Alcotest.(check bool) "deep search complete" true
    (Guard.degraded deep = None);
  let { Parser.program = chain40; _ } =
    Parser.parse_file "corpus/chain40.dl"
  in
  let shallow =
    Proof.answer chain40
      (Program.instance_of_facts chain40)
      (Query.make ~head:[ v "Y" ] [ atom "path" [ s "n0"; v "Y" ] ])
  in
  Alcotest.(check bool) "shallow finds fewer" true
    (List.length (Guard.value shallow) < 40);
  Alcotest.(check bool) "depth pruning flagged" true
    (Option.map (fun e -> e.Guard.resource) (Guard.degraded shallow)
     = Some Guard.Depth);
  let truncated =
    Proof.answer ~guard:(Guard.create ~max_steps:5 ()) p (chain 10) q
  in
  Alcotest.(check bool) "step truncation flagged" false
    (Guard.degraded truncated = None)

(* A 40-edge chain: the chase finds all 40 nodes reachable from n0, and
   proof search at its default depth of 32 prunes the longer paths, so
   its answers are a partial set reported as a depth exhaustion, never
   a complete one. *)
let test_proof_depth_pruning_degrades () =
  let { Parser.program; _ } = Parser.parse_file "corpus/chain40.dl" in
  let inst = Program.instance_of_facts program in
  let q =
    Query.make ~head:[ v "Y" ] [ atom "path" [ s "n0"; v "Y" ] ]
  in
  (match Answer.answer Answer.Chase program inst q with
   | Answer.Ok l -> Alcotest.(check int) "chase: 40 answers" 40 (List.length l)
   | _ -> Alcotest.fail "chase must complete");
  match Answer.answer Answer.Proof program inst q with
  | Answer.Degraded { partial; exhaustion } ->
    Alcotest.(check string) "depth exhaustion" "depth"
      (Guard.resource_name exhaustion.Guard.resource);
    Alcotest.(check int) "partial: 32 answers" 32 (List.length partial)
  | Answer.Ok l ->
    Alcotest.failf "proof reported %d answers as complete" (List.length l)
  | Answer.Inconsistent _ -> Alcotest.fail "chain40 is consistent"
  | Answer.Refused d -> Alcotest.failf "proof refused: %s" d.Diag.message

(* egd_window.dl's EGD equates units at affected positions, so its
   EGDs are not separable: the chase finds 3 institution units, and the
   engines that ignore EGDs are refused rather than answer fewer. *)
let test_out_of_scope_refused () =
  let { Parser.program; _ } = Parser.parse_file "corpus/egd_window.dl" in
  let inst = Program.instance_of_facts program in
  let q =
    Query.make ~head:[ v "I"; v "U" ]
      [ atom "institution_unit" [ v "I"; v "U" ] ]
  in
  (match Answer.answer Answer.Chase program inst q with
   | Answer.Ok l -> Alcotest.(check int) "chase: 3 answers" 3 (List.length l)
   | _ -> Alcotest.fail "chase must complete");
  List.iter
    (fun e ->
      match Answer.answer e program inst q with
      | Answer.Refused d ->
        Alcotest.(check string) (Answer.engine_name e) "E033" d.Diag.code
      | _ -> Alcotest.failf "%s answered" (Answer.engine_name e))
    [ Answer.Proof; Answer.Rewrite ]

(* One step budget bounds every engine: proof search on the complete
   8-node graph, which would run to its 2,000,000-step cap, stops at
   the guard's 1,000 steps and reports that limit. *)
let test_proof_under_guard_steps () =
  let node i = Printf.sprintf "n%d" i in
  let edges =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if i = j then None else Some [ node i; node j ])
          (List.init 8 succ))
      (List.init 8 succ)
  in
  let p =
    Program.make
      ~tgds:
        [ tgd [ atom "edge" [ v "X"; v "Y" ] ] [ atom "path" [ v "X"; v "Y" ] ];
          tgd
            [ atom "edge" [ v "X"; v "Y" ]; atom "path" [ v "Y"; v "Z" ] ]
            [ atom "path" [ v "X"; v "Z" ] ] ]
      ()
  in
  let inst = instance_of [ ("edge", 2, edges); ("path", 2, []) ] in
  let q = Query.make ~head:[ v "Y" ] [ atom "path" [ s "n1"; v "Y" ] ] in
  match
    Answer.answer ~guard:(Guard.create ~max_steps:1000 ()) Answer.Proof p inst
      q
  with
  | Answer.Degraded { exhaustion = e; _ } ->
    Alcotest.(check string) "steps" "steps"
      (Guard.resource_name e.Guard.resource);
    Alcotest.(check (float 0.)) "limit 1000" 1000. e.Guard.limit
  | _ -> Alcotest.fail "expected a step-budget degradation"

let test_rewrite_max_cqs_budget () =
  let p =
    Program.make
      ~tgds:
        [ tgd [ atom "p" [ v "X" ] ] [ atom "q" [ v "X" ] ];
          tgd [ atom "q" [ v "X" ] ] [ atom "r" [ v "X" ] ];
          tgd [ atom "r" [ v "X" ] ] [ atom "q" [ v "X" ] ] ]
      ()
  in
  let query = Query.make ~head:[ v "X" ] [ atom "q" [ v "X" ] ] in
  (* the cycle q <-> r converges here; a budget of 1 must degrade,
     naming the CQ resource and carrying the disjuncts produced *)
  (match Rewrite.rewrite ~guard:(Guard.create ~max_cqs:1 ()) p query with
   | Guard.Degraded (r, e) ->
     Alcotest.(check bool) "cq resource named" true
       (e.Guard.resource = Guard.Cqs);
     Alcotest.(check bool) "partial ucq is non-empty" true
       (r.Rewrite.ucq <> [])
   | Guard.Complete _ -> Alcotest.fail "expected budget degradation")

(* ------------------------------------------------------------------ *)
(* Eval corner cases *)

let test_eval_duplicate_vars_in_atom () =
  (* p(X, X) only matches the diagonal *)
  let inst = instance_of [ ("p", 2, [ [ "a"; "a" ]; [ "a"; "b" ] ]) ] in
  Alcotest.(check int) "diagonal only" 1
    (List.length (Eval.answers inst [ atom "p" [ v "X"; v "X" ] ]))

let test_eval_cross_atom_constant_join () =
  let inst =
    instance_of [ ("p", 1, [ [ "a" ] ]); ("q", 2, [ [ "a"; "z" ] ]) ]
  in
  Alcotest.(check int) "join through shared var" 1
    (List.length
       (Eval.answers inst [ atom "p" [ v "X" ]; atom "q" [ v "X"; v "Y" ] ]))

(* ------------------------------------------------------------------ *)
(* Explain rendering *)

let test_explain_pp_smoke () =
  let p =
    Program.make
      ~tgds:
        [ Tgd.make ~name:"r1" ~body:[ atom "a" [ v "X" ] ]
            ~head:[ atom "b" [ v "X" ] ] () ]
      ~facts:[ atom "a" [ s "k" ] ]
      ()
  in
  let r = Chase.run ~provenance:true p (Program.instance_of_facts p) in
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  match Explain.why r "b" (R.Tuple.of_list [ R.Value.sym "k" ]) with
  | Ok tree ->
    let text = Format.asprintf "%a" Explain.pp tree in
    Alcotest.(check bool) "names the rule" true (contains ~needle:"[r1]" text);
    Alcotest.(check bool) "marks the extensional leaf" true
      (contains ~needle:"(extensional)" text)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Incremental chase *)

let tc_program =
  Program.make
    ~tgds:
      [ tgd [ atom "e" [ v "X"; v "Y" ] ] [ atom "t" [ v "X"; v "Y" ] ];
        tgd
          [ atom "t" [ v "X"; v "Y" ]; atom "t" [ v "Y"; v "Z" ] ]
          [ atom "t" [ v "X"; v "Z" ] ] ]
    ()

let extend program (prior : Chase.result) facts =
  Chase.run ~start:(Chase.Extend { prior; facts }) program prior.Chase.instance

let test_extend_matches_full_rechase () =
  let base = instance_of [ ("e", 2, [ [ "a"; "b" ]; [ "b"; "c" ] ]) ] in
  let prior = Chase.run tc_program base in
  Alcotest.(check bool) "prior saturated" true
    (prior.Chase.outcome = Chase.Saturated);
  let new_fact = ("e", R.Tuple.of_list [ R.Value.sym "c"; R.Value.sym "d" ]) in
  let incr = extend tc_program prior [ new_fact ] in
  Alcotest.(check bool) "incr saturated" true
    (incr.Chase.outcome = Chase.Saturated);
  let full =
    Chase.run tc_program
      (instance_of
         [ ("e", 2, [ [ "a"; "b" ]; [ "b"; "c" ]; [ "c"; "d" ] ]) ])
  in
  Alcotest.(check bool) "same instance as full re-chase" true
    (R.Instance.equal incr.Chase.instance full.Chase.instance);
  Alcotest.(check int) "closure complete" 6
    (R.Relation.cardinal (R.Instance.get incr.Chase.instance "t"))

let test_extend_cheaper_than_full () =
  (* the incremental run checks far fewer triggers *)
  let rows = List.init 30 (fun i -> [ Printf.sprintf "n%d" i; Printf.sprintf "n%d" (i + 1) ]) in
  let base = instance_of [ ("e", 2, rows) ] in
  let p =
    Program.make
      ~tgds:[ tgd [ atom "e" [ v "X"; v "Y" ] ] [ atom "t" [ v "X"; v "Y" ] ] ]
      ()
  in
  let prior = Chase.run p base in
  let incr =
    extend p prior
      [ ("e", R.Tuple.of_list [ R.Value.sym "zz"; R.Value.sym "zz2" ]) ]
  in
  Alcotest.(check bool) "few triggers" true
    (incr.Chase.stats.Chase.triggers_checked
    < prior.Chase.stats.Chase.triggers_checked);
  Alcotest.(check int) "one new t fact" 31
    (R.Relation.cardinal (R.Instance.get incr.Chase.instance "t"))

let test_extend_carries_provenance () =
  let base = instance_of [ ("e", 2, [ [ "a"; "b" ] ]) ] in
  let prior = Chase.run ~provenance:true tc_program base in
  let incr =
    extend tc_program prior
      [ ("e", R.Tuple.of_list [ R.Value.sym "b"; R.Value.sym "c" ]) ]
  in
  (* old and new derived facts both explainable *)
  (match
     Explain.why incr "t" (R.Tuple.of_list [ R.Value.sym "a"; R.Value.sym "b" ])
   with
   | Ok tree -> Alcotest.(check int) "old fact depth" 1 (Explain.depth tree)
   | Error e -> Alcotest.fail e);
  (match
     Explain.why incr "t" (R.Tuple.of_list [ R.Value.sym "a"; R.Value.sym "c" ])
   with
   | Ok tree -> Alcotest.(check bool) "new fact explained" true (Explain.depth tree >= 1)
   | Error e -> Alcotest.fail e)

let test_extend_detects_new_violation () =
  let p =
    Program.make
      ~ncs:[ Nc.make [ atom "p" [ v "X" ]; atom "bad" [ v "X" ] ] ]
      ()
  in
  let base = instance_of [ ("p", 1, [ [ "x" ] ]); ("bad", 1, []) ] in
  let prior = Chase.run p base in
  Alcotest.(check bool) "prior consistent" true
    (prior.Chase.outcome = Chase.Saturated);
  let incr = extend p prior [ ("bad", R.Tuple.of_list [ R.Value.sym "x" ]) ] in
  (match incr.Chase.outcome with
   | Chase.Failed (Chase.Nc_violation _) -> ()
   | o -> Alcotest.failf "expected violation, got %a" Chase.pp_outcome o)

let test_extend_unsaturated_prior_rechases () =
  (* a prior cut short by its guard has no sound delta: extending it must
     chase the prior's instance plus the new facts in full, leaving the
     prior's instance and provenance untouched *)
  let rows = List.init 6 (fun i -> [ Printf.sprintf "n%d" i; Printf.sprintf "n%d" (i + 1) ]) in
  let base = instance_of [ ("e", 2, rows) ] in
  let prior =
    Chase.run ~provenance:true ~guard:(Guard.create ~max_steps:3 ()) tc_program
      base
  in
  Alcotest.(check bool) "prior cut short" true
    (match prior.Chase.outcome with Chase.Out_of_budget _ -> true | _ -> false);
  let prior_t = R.Relation.cardinal (R.Instance.get prior.Chase.instance "t") in
  let prior_prov = Hashtbl.length (Option.get prior.Chase.provenance) in
  let new_fact = ("e", R.Tuple.of_list [ R.Value.sym "n6"; R.Value.sym "n7" ]) in
  let incr = extend tc_program prior [ new_fact ] in
  Alcotest.(check bool) "extension saturated" true
    (incr.Chase.outcome = Chase.Saturated);
  let full =
    Chase.run tc_program
      (instance_of [ ("e", 2, rows @ [ [ "n6"; "n7" ] ]) ])
  in
  Alcotest.(check bool) "same instance as full chase" true
    (R.Instance.equal incr.Chase.instance full.Chase.instance);
  Alcotest.(check int) "closure of an 8-node path" 28
    (R.Relation.cardinal (R.Instance.get incr.Chase.instance "t"));
  Alcotest.(check int) "prior instance not mutated" prior_t
    (R.Relation.cardinal (R.Instance.get prior.Chase.instance "t"));
  Alcotest.(check int) "prior provenance not mutated" prior_prov
    (Hashtbl.length (Option.get prior.Chase.provenance))

let test_resume_empty_frontier_full_round () =
  (* an empty resume frontier means a full first round, and every null
     the resumed run mints is labelled at or above [null_base] *)
  let p =
    Program.make
      ~tgds:[ tgd [ atom "person" [ v "X" ] ] [ atom "father" [ v "X"; v "Y" ] ] ]
      ()
  in
  let image = instance_of [ ("person", 1, [ [ "ann" ]; [ "bob" ] ]) ] in
  let image_before = R.Instance.copy image in
  let prior_stats =
    { Chase.rounds = 1; tgd_fires = 0; triggers_checked = 0;
      nulls_created = 0; egd_merges = 0 }
  in
  let r =
    Chase.run
      ~start:(Chase.Resume { frontier = []; null_base = 100; prior_stats })
      p image
  in
  Alcotest.(check bool) "saturated" true (r.Chase.outcome = Chase.Saturated);
  Alcotest.(check int) "both heads fired" 2 r.Chase.stats.Chase.tgd_fires;
  Alcotest.(check bool) "prior rounds folded in" true
    (r.Chase.stats.Chase.rounds > 1);
  let father = R.Instance.get r.Chase.instance "father" in
  Alcotest.(check int) "two facts" 2 (R.Relation.cardinal father);
  R.Relation.iter
    (fun t ->
      match R.Tuple.get t 1 with
      | R.Value.Null k ->
        Alcotest.(check bool) "null above base" true (k >= 100)
      | _ -> Alcotest.fail "expected a labelled null")
    father;
  Alcotest.(check bool) "input image not mutated" true
    (R.Instance.equal image image_before)

(* ------------------------------------------------------------------ *)
(* Stickiness marking internals *)

let test_marking_base_step () =
  (* t(X,Z) :- r(X,Y), s(Y,Z): Y is not in the head -> marked *)
  let m = Analysis.analyse prog_join in
  let the_tgd = List.hd prog_join.Program.tgds in
  Alcotest.(check bool) "Y marked" true (Analysis.is_marked m the_tgd "Y");
  Alcotest.(check bool) "X unmarked" false (Analysis.is_marked m the_tgd "X");
  Alcotest.(check bool) "r[1] marked position" true
    (List.mem ("r", 1) (Analysis.marked_positions m));
  Alcotest.(check bool) "s[0] marked position" true
    (List.mem ("s", 0) (Analysis.marked_positions m))

let test_marking_propagation () =
  (* σa: s(X) :- t(X,Y)           — Y marked at t[1]
     σb: t(X,Y) :- u(X,Y)         — Y occurs in σb's head at marked
                                     position t[1]: propagate into u[1] *)
  let p =
    Program.make
      ~tgds:
        [ tgd ~name:"sa" [ atom "t" [ v "X"; v "Y" ] ] [ atom "s" [ v "X" ] ];
          tgd ~name:"sb" [ atom "u" [ v "X"; v "Y" ] ]
            [ atom "t" [ v "X"; v "Y" ] ] ]
      ()
  in
  let m = Analysis.analyse p in
  let sb = List.find (fun (t : Tgd.t) -> t.Tgd.name = "sb") p.Program.tgds in
  Alcotest.(check bool) "Y propagated into sb" true
    (Analysis.is_marked m sb "Y");
  Alcotest.(check bool) "u[1] marked" true
    (List.mem ("u", 1) (Analysis.marked_positions m))

(* ------------------------------------------------------------------ *)
(* Goal-directed restriction *)

let test_restrict_drops_irrelevant () =
  let p =
    Program.make
      ~tgds:
        [ tgd ~name:"keep1" [ atom "e" [ v "X"; v "Y" ] ]
            [ atom "t" [ v "X"; v "Y" ] ];
          tgd ~name:"keep2" [ atom "t" [ v "X"; v "Y" ] ]
            [ atom "goal" [ v "X" ] ];
          tgd ~name:"drop" [ atom "e" [ v "X"; v "Y" ] ]
            [ atom "unrelated" [ v "X" ] ] ]
      ()
  in
  let r = Program.restrict_to_goals p ~goals:[ "goal" ] in
  Alcotest.(check (list string)) "transitively relevant rules kept"
    [ "keep1"; "keep2" ]
    (List.sort compare (List.map (fun (t : Tgd.t) -> t.Tgd.name) r.Program.tgds))

let test_restrict_keeps_constraint_feeders () =
  (* a rule feeding only an NC body must survive *)
  let p =
    Program.make
      ~tgds:
        [ tgd ~name:"feeder" [ atom "e" [ v "X"; v "Y" ] ]
            [ atom "bad" [ v "X" ] ] ]
      ~ncs:[ Nc.make [ atom "bad" [ v "X" ] ] ]
      ()
  in
  let r = Program.restrict_to_goals p ~goals:[ "other" ] in
  Alcotest.(check int) "feeder kept" 1 (List.length r.Program.tgds)

(* The chase engine always chases the program restricted to the
   query's goals: its answers are those read off the full fixpoint. *)
let test_goal_directed_same_answers () =
  let p =
    Program.make
      ~tgds:
        [ tgd [ atom "e" [ v "X"; v "Y" ] ] [ atom "t" [ v "X"; v "Y" ] ];
          tgd [ atom "e" [ v "X"; v "Y" ] ] [ atom "noise" [ v "X"; v "Z" ] ] ]
      ()
  in
  let q = Query.make ~head:[ v "X" ] [ atom "t" [ v "X"; v "Y" ] ] in
  let a = Answer.of_fixpoint (Chase.run p edge_inst) q in
  let b = Answer.answer Answer.Chase p edge_inst q in
  (match a, b with
   | Answer.Ok xs, Answer.Ok ys ->
     Alcotest.(check bool) "same answers" true (xs = ys)
   | _ -> Alcotest.fail "chase failed");
  (* and the noise rule (with its unbounded existential) is not fired *)
  let restricted = Program.restrict_to_goals p ~goals:[ "t" ] in
  Alcotest.(check int) "one rule" 1 (List.length restricted.Program.tgds)

(* ------------------------------------------------------------------ *)
(* Core computation *)

let test_core_folds_redundant_null () =
  (* father(ann, ⊥1) is subsumed by father(ann, carl) *)
  let inst = R.Instance.create () in
  ignore (R.Instance.declare inst (R.Rel_schema.of_names "father" [ "a"; "b" ]));
  ignore
    (R.Instance.add_tuple inst "father"
       (R.Tuple.of_list [ R.Value.sym "ann"; R.Value.sym "carl" ]));
  ignore
    (R.Instance.add_tuple inst "father"
       (R.Tuple.of_list [ R.Value.sym "ann"; R.Value.Null 1 ]));
  let core = Core_inst.compute inst in
  Alcotest.(check int) "null folded away" 0 (Core_inst.null_count core);
  Alcotest.(check int) "one fact" 1
    (R.Relation.cardinal (R.Instance.get core "father"));
  Alcotest.(check bool) "hom equivalent" true
    (Core_inst.hom_equivalent inst core);
  Alcotest.(check int) "input untouched" 2
    (R.Relation.cardinal (R.Instance.get inst "father"))

let test_core_keeps_necessary_null () =
  (* father(bob, ⊥2) has no constant witness: must stay *)
  let inst = R.Instance.create () in
  ignore (R.Instance.declare inst (R.Rel_schema.of_names "father" [ "a"; "b" ]));
  ignore
    (R.Instance.add_tuple inst "father"
       (R.Tuple.of_list [ R.Value.sym "bob"; R.Value.Null 2 ]));
  let core = Core_inst.compute inst in
  Alcotest.(check int) "null kept" 1 (Core_inst.null_count core)

let test_core_oblivious_equals_restricted () =
  (* the oblivious chase of the hospital over-generates; its core is
     hom-equivalent to the restricted chase result *)
  let m = Mdqa_hospital.Hospital.ontology () in
  let module MO = Mdqa_multidim.Md_ontology in
  let restricted = MO.chase ~variant:Chase.Restricted m in
  let oblivious = MO.chase ~variant:Chase.Oblivious m in
  Alcotest.(check bool) "oblivious has more or equal nulls" true
    (Core_inst.null_count oblivious.Chase.instance
    >= Core_inst.null_count restricted.Chase.instance);
  let core = Core_inst.compute oblivious.Chase.instance in
  Alcotest.(check bool) "core no larger than restricted result" true
    (R.Instance.total_tuples core
    <= R.Instance.total_tuples restricted.Chase.instance);
  Alcotest.(check bool) "core hom-equivalent to restricted" true
    (Core_inst.hom_equivalent core restricted.Chase.instance)

(* ------------------------------------------------------------------ *)
(* Parser / Pretty *)

(* [Program.load] joins facts to their relations 4,096 at a time: the
   relations hold what one add per fact gives, duplicates across runs
   included, and the first fact of a wrong arity raises add's error. *)
let test_program_load_runs () =
  let fact i =
    if i mod 3 = 0 then ("q", [ i mod 7 ])
    else ("p", [ i mod 4999; i mod 4999 mod 3 ])
  in
  let facts = List.init 10_000 fact in
  let tuple l = R.Tuple.of_list (List.map R.Value.int l) in
  let rel inst pred n =
    R.Instance.declare inst
      (R.Rel_schema.of_names pred (List.init n (Printf.sprintf "c%d")))
  in
  let contents inst =
    List.map
      (fun r ->
        (R.Relation.name r, R.Relation.cardinal r, R.Relation.to_list r))
      (R.Instance.relations inst)
  in
  let by_adds facts =
    let inst = R.Instance.create () in
    List.iter
      (fun (p, l) ->
        ignore (R.Relation.add (rel inst p (List.length l)) (tuple l)))
      facts;
    contents inst
  in
  let by_load facts =
    let inst = R.Instance.create () in
    Program.load (rel inst) (fun add ->
        List.iter (fun (p, l) -> add p (tuple l)) facts);
    contents inst
  in
  Alcotest.(check bool) "same relations" true (by_load facts = by_adds facts);
  let bad =
    List.mapi
      (fun i f ->
        if i = 7000 then ("p", [ 1 ])
        else if i = 8001 then ("q", [ 1; 2 ])
        else f)
      facts
  in
  Alcotest.check_raises "first clash"
    (Invalid_argument "Relation p: arity mismatch (schema 2, tuple 1)")
    (fun () -> ignore (by_load bad))

let test_parse_program () =
  let text =
    {|
      % the hospital example, abridged
      unit_ward(standard, w1).
      unit_ward(standard, w2).
      patient_ward(w1, "Sep/5", "Tom Waits").
      patient_unit(U, D, P) :- patient_ward(W, D, P), unit_ward(U, W).
      ! :- patient_ward(W, D, P), unit_ward(intensive, W).
      T1 = T2 :- therm(W1, T1), therm(W2, T2), unit_ward(U, W1), unit_ward(U, W2).
      ?q(D) :- patient_unit(standard, D, "Tom Waits").
    |}
  in
  let { Parser.program; queries } = Parser.parse_string text in
  Alcotest.(check int) "facts" 3
    (R.Instance.total_tuples (Program.instance_of_facts program));
  Alcotest.(check int) "tgds" 1 (List.length program.Program.tgds);
  Alcotest.(check int) "egds" 1 (List.length program.Program.egds);
  Alcotest.(check int) "ncs" 1 (List.length program.Program.ncs);
  Alcotest.(check int) "queries" 1 (List.length queries)

(* Names are numbered per parse: one program parsed twice gets the
   same names, so the profiler keeps one entry per rule across both
   chases, with the triggers of both. *)
let test_parse_names_per_parse () =
  let text =
    {|
      e(a, b). e(b, c).
      t(X, Y) :- e(X, Y).
      t(X, Z) :- t(X, Y), e(Y, Z).
      ! :- e(X, X).
      X = Y :- f(X), f(Y).
      ? :- t(a, c).
    |}
  in
  let names { Parser.program; queries } =
    List.map (fun t -> t.Tgd.name) program.Program.tgds
    @ List.map (fun e -> e.Egd.name) program.Program.egds
    @ List.map (fun n -> n.Nc.name) program.Program.ncs
    @ List.map (fun q -> q.Query.name) queries
  in
  let first = Parser.parse_string text and second = Parser.parse_string text in
  Alcotest.(check (list string)) "same names"
    [ "t/1"; "t/2"; "egd1"; "nc1"; "q1" ] (names first);
  Alcotest.(check (list string)) "same names again" (names first)
    (names second);
  let module P = Mdqa_obs.Profile in
  let profile parses =
    let p = P.create () in
    P.install p;
    Fun.protect ~finally:P.uninstall (fun () ->
        List.iter
          (fun { Parser.program; _ } ->
            ignore (Chase.run program (Program.instance_of_facts program)))
          parses);
    List.map (fun (r, st) -> (r, st.P.triggers)) (P.snapshot p).P.rules
  in
  let once = profile [ first ] in
  Alcotest.(check (list string)) "one entry per rule" [ "t/1"; "t/2" ]
    (List.map fst once);
  Alcotest.(check (list (pair string int))) "twice the triggers"
    (List.map (fun (r, n) -> (r, 2 * n)) once)
    (profile [ first; second ])

let test_parse_end_to_end () =
  let text =
    {|
      unit_ward(standard, w1).
      unit_ward(standard, w2).
      patient_ward(w1, sep5, tom).
      patient_unit(U, D, P) :- patient_ward(W, D, P), unit_ward(U, W).
      ?q(U) :- patient_unit(U, sep5, tom).
    |}
  in
  let { Parser.program; queries } = Parser.parse_string text in
  let inst = Program.instance_of_facts program in
  let q = List.hd queries in
  (match Answer.answer Answer.Chase program inst q with
   | Answer.Ok [ t ] ->
     Alcotest.check tuple_testable "standard"
       (R.Tuple.of_list [ R.Value.sym "standard" ])
       t
   | _ -> Alcotest.fail "expected exactly one answer")

let test_parse_existential_head () =
  let text = "shifts(W, D, N, Z) :- ws(U, D, N), uw(U, W)." in
  let { Parser.program; _ } = Parser.parse_string text in
  let t = List.hd program.Program.tgds in
  Alcotest.(check (list string)) "Z existential" [ "Z" ]
    (Term.Var_set.elements (Tgd.existential_vars t))

let test_parse_multi_atom_head () =
  let text = "iu(I, U), pu(U, D, P) :- discharge(I, D, P)." in
  let { Parser.program; _ } = Parser.parse_string text in
  let t = List.hd program.Program.tgds in
  Alcotest.(check int) "two head atoms" 2 (List.length t.Tgd.head);
  Alcotest.(check (list string)) "U existential" [ "U" ]
    (Term.Var_set.elements (Tgd.existential_vars t))

let test_parse_errors () =
  let bad input =
    match Parser.parse_string input with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected syntax error on %S" input
  in
  bad "p(X).";  (* non-ground fact *)
  bad "p(a) :- .";  (* empty body *)
  bad "p(a";  (* unclosed *)
  bad "p(a)  q(b).";  (* missing period/turnstile *)
  bad "! :- X > 3.";  (* constraint without atoms *)
  bad "p(a, b, \"unterminated)."

let test_parse_comparisons () =
  let text = "?q(X) :- m(X, V), V >= 38, X != t2." in
  let q = List.hd (Parser.parse_string text).Parser.queries in
  Alcotest.(check int) "two comparisons" 2 (List.length q.Query.cmps)

let test_parse_query_helper () =
  let q = Parser.parse_query "q(X) :- e(X, Y)" in
  Alcotest.(check int) "one head var" 1 (List.length q.Query.head)

(* A statement after the query is never dropped: a trailing
   constraint or EGD is E002, like a trailing fact or rule. *)
let test_parse_query_rejects_tail () =
  List.iter
    (fun input ->
      match Parser.parse_query input with
      | exception Parser.Error { code; _ } ->
        Alcotest.(check string) input "E002" code
      | _ -> Alcotest.failf "accepted %S" input)
    [ "q(W) :- patient_ward(W, D, P). ! :- patient_ward(W, D, P)";
      "q(W) :- patient_ward(W, D, P). X = Y :- patient_ward(W, X, Y)";
      "q(W) :- e(W). e(a)";
      "q(W) :- e(W). f(X) :- e(X)" ]

let test_pretty_roundtrip_fixed () =
  let text =
    {|
      unit_ward(standard, w1).
      patient_ward(w1, "Sep/5", "Tom Waits").
      patient_unit(U, D, P) :- patient_ward(W, D, P), unit_ward(U, W).
      shifts(W, D, N, Z) :- ws(U, D, N), uw(U, W).
      T1 = T2 :- therm(W1, T1), therm(W2, T2).
      ! :- pw(W, D, P), uw(intensive, W).
    |}
  in
  let p1 = (Parser.parse_string text).Parser.program in
  let printed = Pretty.program_to_string p1 in
  let p2 = (Parser.parse_string printed).Parser.program in
  Alcotest.(check string) "pretty fixpoint" printed
    (Pretty.program_to_string p2)

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Random small full-TGD programs over fixed predicates; compare the
   three answering mechanisms (chase, top-down proof, rewriting). *)

let small_const = QCheck.Gen.oneofl [ "c1"; "c2"; "c3"; "c4" ]
let small_var = QCheck.Gen.oneofl [ "X"; "Y"; "Z" ]

let gen_fact =
  QCheck.Gen.(
    oneof
      [ map (fun c -> atom "a" [ s c ]) small_const;
        map (fun c -> atom "b" [ s c ]) small_const;
        map2 (fun c d -> atom "e" [ s c; s d ]) small_const small_const ])

(* Full TGDs: head vars drawn from body vars. *)
let gen_full_tgd =
  QCheck.Gen.(
    let gen_body_atom =
      oneof
        [ map (fun x -> atom "a" [ v x ]) small_var;
          map (fun x -> atom "b" [ v x ]) small_var;
          map2 (fun x y -> atom "e" [ v x; v y ]) small_var small_var ]
    in
    let* body = list_size (1 -- 2) gen_body_atom in
    let body_vars =
      List.concat_map (fun a -> Term.Var_set.elements (Atom.vars a)) body
    in
    match body_vars with
    | [] -> return None
    | v0 :: _ ->
      let* hv = oneofl body_vars in
      let* hp = oneofl [ `A; `B; `E ] in
      let head =
        match hp with
        | `A -> atom "a" [ v hv ]
        | `B -> atom "b" [ v hv ]
        | `E -> atom "e" [ v hv; v v0 ]
      in
      return (Some (tgd body [ head ])))

(* With [existentials], a TGD may instead invent a null N in its head:
   e(V, N), e(N, V), or e(V, N), b(N) with one null shared by two atoms.
   A body over e or b then recurses through existentials, so some
   programs never terminate. *)
let gen_tgd ~existentials =
  QCheck.Gen.(
    let* full = gen_full_tgd and* ex = bool in
    match full with
    | Some t when existentials && ex ->
      let* hv = oneofl (Term.Var_set.elements (Tgd.body_vars t))
      and* shape = oneofl [ `Forward; `Backward; `Shared ] in
      let head =
        match shape with
        | `Forward -> [ atom "e" [ v hv; v "N" ] ]
        | `Backward -> [ atom "e" [ v "N"; v hv ] ]
        | `Shared -> [ atom "e" [ v hv; v "N" ]; atom "b" [ v "N" ] ]
      in
      return (Some (tgd t.Tgd.body head))
    | t -> return t)

let gen_program ?(existentials = false) () =
  QCheck.Gen.(
    let* facts = list_size (1 -- 6) gen_fact in
    let* tgds = list_size (1 -- 3) (gen_tgd ~existentials) in
    let tgds = List.filter_map Fun.id tgds in
    return (Program.make ~tgds ~facts ()))

let program_arb =
  QCheck.make ~print:Pretty.program_to_string (gen_program ())

let query_a = Query.make ~head:[ v "X" ] [ atom "a" [ v "X" ] ]

let prop_proof_agrees_with_chase =
  QCheck.Test.make ~name:"proof search = chase certain answers" ~count:150
    program_arb (fun p ->
      let inst = Program.instance_of_facts p in
      match Answer.answer Answer.Chase p inst query_a with
      | Answer.Ok via_chase ->
        (match
           (Proof.answer ~guard:(Guard.create ~max_steps:100_000 ()) p inst
              query_a)
             
         with
         | Guard.Complete l -> via_chase = l
         | Guard.Degraded (l, _) ->
           (* truncated searches must still be sound *)
           List.for_all (fun t -> List.mem t via_chase) l)
      | _ -> QCheck.assume_fail ())

let prop_rewrite_agrees_with_chase =
  QCheck.Test.make ~name:"rewriting = chase on acyclic programs" ~count:150
    program_arb (fun p ->
      QCheck.assume (Program.predicate_graph_acyclic p);
      let inst = Program.instance_of_facts p in
      match
        ( Answer.answer Answer.Chase p inst query_a,
          Rewrite.answers p inst query_a )
      with
      | Answer.Ok via_chase, Guard.Complete via_rw -> via_chase = via_rw
      | _ -> QCheck.assume_fail ())

let prop_chase_idempotent =
  QCheck.Test.make ~name:"chasing a chased instance adds nothing" ~count:100
    program_arb (fun p ->
      let inst = Program.instance_of_facts p in
      let r1 = Chase.run p inst in
      let r2 = Chase.run p r1.Chase.instance in
      R.Instance.equal r1.Chase.instance r2.Chase.instance)

let prop_semi_naive_equals_naive =
  QCheck.Test.make ~name:"semi-naive chase = naive chase" ~count:100
    program_arb (fun p ->
      let inst = Program.instance_of_facts p in
      let a = Chase.run ~semi_naive:true p inst in
      let b = Chase.run ~semi_naive:false p inst in
      R.Instance.equal a.Chase.instance b.Chase.instance)

(* Every way of reaching a fixpoint agrees on programs with existential
   heads and recursion through them: the restricted chase semi-naive,
   naive, and as a chase of some of the facts extended by the rest; the
   oblivious chase semi-naive and naive.  Labels of nulls differ, so
   instances are compared up to homomorphic equivalence, and only when
   both runs saturate within a small budget (a restricted chase that
   never terminates in one trigger order may in another). *)
let prop_existential_paths_agree =
  let arb =
    QCheck.make
      ~print:(fun (p, marks) ->
        Pretty.program_to_string p ^ "\nfirst part: "
        ^ String.concat "" (List.map (fun b -> if b then "1" else "0") marks))
      QCheck.Gen.(pair (gen_program ~existentials:true ()) (list_repeat 6 bool))
  in
  QCheck.Test.make ~name:"existential chase: semi-naive = naive = extend"
    ~count:2000 arb (fun (p, marks) ->
      let run ?variant ?semi_naive ?start p inst =
        let guard = Guard.create ~max_steps:2_000 ~max_nulls:20 () in
        Chase.run ?variant ?semi_naive ?start ~guard p inst
      in
      let agree (a : Chase.result) (b : Chase.result) =
        a.Chase.outcome <> Chase.Saturated
        || b.Chase.outcome <> Chase.Saturated
        || Core_inst.hom_equivalent a.Chase.instance b.Chase.instance
      in
      let inst = Program.instance_of_facts p in
      let semi = run p inst in
      let facts = ref [] in
      R.Instance.iter_facts (fun pred t -> facts := (pred, t) :: !facts) inst;
      let first, rest =
        List.partition snd
          (List.mapi (fun i f -> (f, List.nth marks i)) (List.rev !facts))
      in
      let part =
        Program.make ~tgds:p.Program.tgds
          ~facts:(List.map (fun ((pred, t), _) -> Atom.of_fact pred t) first)
          ()
      in
      let part_inst = Program.instance_of_facts part in
      Program.declare_predicates p part_inst;
      let prior = run part part_inst in
      let facts = List.map fst rest in
      agree semi (run ~semi_naive:false p inst)
      && agree semi
           (run ~start:(Chase.Extend { prior; facts }) part prior.Chase.instance)
      && agree
           (run ~variant:Chase.Oblivious p inst)
           (run ~variant:Chase.Oblivious ~semi_naive:false p inst))

(* --- the EGD merge path --------------------------------------------- *)

(* Programs for the merge path.  Existential TGDs invent one null per
   extensional value in p/q; full TGDs derive s/r from anything; EGDs
   equate values across two atoms that share a key, merging nulls into
   constants and into each other, and clashing when two constants meet.
   Existential bodies are extensional, nothing else writes p/q, and each
   keeps its frontier at one position, so that position only ever holds
   constants: whether a trigger fires never depends on when a merge
   happened, and every saturating path invents and merges the same
   nulls. *)
let gen_merge_program =
  QCheck.Gen.(
    let const = oneofl [ "c1"; "c2"; "c3"; "c4"; "c5" ] in
    let edb = oneofl [ "e"; "f" ] in
    let any = oneofl [ "e"; "f"; "p"; "q"; "s"; "r" ] in
    let var = oneofl [ "X"; "Y"; "Z" ] in
    let two flip a b = if flip then [ a; b ] else [ b; a ] in
    let fact = map3 (fun p c d -> atom p [ s c; s d ]) edb const const in
    (* p keeps its frontier first, q second *)
    let existential =
      let* h, fh = oneofl [ ("p", true); ("q", false) ] and* b = edb
      and* fb = bool in
      return
        ( (h, fh),
          tgd [ atom b (two fb (v "X") (v "Y")) ] [ atom h (two fh (v "X") (v "N")) ] )
    in
    (* mostly a join through an existential head's null, which a merge
       can turn into a new match; sometimes anything *)
    let full heads =
      let* h = oneofl [ "s"; "r" ]
      and* body =
        frequency
          [ ( 2,
              let* (p, fp), b, fb = triple (oneofl heads) any bool in
              return
                [ atom p (two fp (v "X") (v "Y")); atom b (two fb (v "Y") (v "Z")) ] );
            (1, list_size (1 -- 2) (map3 (fun p x y -> atom p [ v x; v y ]) any var var))
          ]
      in
      let vars = List.concat_map (fun a -> Term.Var_set.elements (Atom.vars a)) body in
      let* x = oneofl vars and* y = oneofl vars in
      return (tgd body [ atom h [ v x; v y ] ])
    in
    (* mostly keyed on an existential head's frontier, so that its null
       meets a value; sometimes keyed on the null itself, so that one
       merge makes the next violation; sometimes anywhere *)
    let egd heads =
      let* p1, key_first =
        frequency
          [ (3, oneofl heads);
            (1, map (fun (p, f) -> (p, not f)) (oneofl heads));
            (1, pair any bool) ]
      and* p2 = frequency [ (2, edb); (1, any) ] in
      return
        (Egd.make
           ~body:
             [ atom p1 (two key_first (v "K") (v "A"));
               atom p2 (two key_first (v "K") (v "B")) ]
           (v "A") (v "B"))
    in
    let* facts = list_size (3 -- 8) fact
    and* existentials = list_size (1 -- 2) existential in
    let heads = List.map fst existentials in
    let* fulls = list_size (0 -- 2) (full heads)
    and* egds = list_size (1 -- 2) (egd heads) in
    return
      (Program.make ~tgds:(List.map snd existentials @ fulls) ~egds ~facts ()))

let outcome_kind = function
  | Chase.Saturated -> `Saturated
  | Chase.Failed (Chase.Egd_clash _) -> `Clash
  | _ -> `Other

(* The merge path before union-find merging, kept as a reference: naive
   restricted rounds, each followed by EGD enforcement that finds one
   violation, rewrites the whole instance, and rescans. *)
let reference_merge_chase (p : Program.t) =
  let inst = ref (Program.instance_of_facts p) in
  Program.declare_predicates p !inst;
  let next_null = ref 0 and merges = ref 0 in
  let rewrite from into =
    let out = R.Instance.create () in
    List.iter
      (fun r ->
        let r' = R.Instance.declare out (R.Relation.schema r) in
        R.Relation.iter
          (fun t ->
            ignore
              (R.Relation.add r'
                 (R.Tuple.map (fun x -> if R.Value.equal x from then into else x) t)))
          r)
      (R.Instance.relations !inst);
    inst := out;
    incr merges
  in
  let violation (egd : Egd.t) s =
    match (Subst.apply_term s egd.Egd.lhs, Subst.apply_term s egd.Egd.rhs) with
    | Term.Const x, Term.Const y when not (R.Value.equal x y) -> Some (x, y)
    | _ -> None
  in
  let rec enforce () =
    match
      List.find_map
        (fun egd -> List.find_map (violation egd) (Eval.answers !inst egd.Egd.body))
        p.Program.egds
    with
    | None -> true
    | Some (x, y) when R.Value.is_null x -> rewrite x y; enforce ()
    | Some (x, y) when R.Value.is_null y -> rewrite y x; enforce ()
    | Some _ -> false
  in
  let fire grew (tgd : Tgd.t) s =
    if not (Eval.exists !inst (List.map (Subst.apply_atom s) tgd.Tgd.head)) then begin
      let s =
        Term.Var_set.fold
          (fun x s ->
            incr next_null;
            Subst.bind_exn s x (Term.Const (R.Value.Null !next_null)))
          (Tgd.existential_vars tgd) s
      in
      List.iter
        (fun a ->
          if R.Instance.add_tuple !inst (Atom.pred a) (Atom.to_tuple a) then
            grew := true)
        (List.map (Subst.apply_atom s) tgd.Tgd.head)
    end
  in
  let rec rounds () =
    let grew = ref false in
    List.iter
      (fun tgd -> List.iter (fire grew tgd) (Eval.answers !inst tgd.Tgd.body))
      p.Program.tgds;
    if not (enforce ()) then `Clash else if !grew then rounds () else `Saturated
  in
  let kind = if enforce () then rounds () else `Clash in
  (kind, !merges, !inst)

exception Crash

(* Chase [p] into a fresh store, interrupted, then resume the store to
   completion; the outcome kind, merge count and instance of the whole
   run.  [`Steps n]: a guard of [n] steps; the run ends in [on_done],
   which compacts, so the resume starts from a snapshot.  [`Crash n]:
   the process dies after [n] journal records (facts and merges), with
   no [on_done], so the resume replays the journal tail, merge records
   included, and counts them.  [None] when the run ends before the
   crash. *)
let resume_after_interrupt p interrupt =
  let path = Filename.temp_file "mdqa_merge" ".snap" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ path; path ^ ".journal"; path ^ ".tmp"; path ^ ".1"; path ^ ".2" ])
  @@ fun () ->
  let guard =
    match interrupt with
    | `Steps n -> Some (Guard.create ~max_steps:n ())
    | `Crash _ -> None
  in
  let store =
    Mdqa_store.Store.create ?guard ~path
      ~program_text:(Pretty.program_to_string p) ~variant:Chase.Restricted ()
  in
  let inner = Mdqa_store.Store.checkpoint store in
  let checkpoint =
    match interrupt with
    | `Steps _ -> inner
    | `Crash n ->
      let seen = ref 0 in
      let tick () = if !seen >= n then raise Crash else incr seen in
      { inner with
        Chase.on_fact = (fun pred t -> tick (); inner.Chase.on_fact pred t);
        on_merge =
          (fun ~from_ ~into ->
            tick ();
            inner.Chase.on_merge ~from_ ~into);
        on_done = (fun ~instance:_ _ _ -> ()) }
  in
  let crashed =
    match Chase.run ?guard ~checkpoint p (Program.instance_of_facts p) with
    | _ -> false
    | exception Crash -> true
  in
  if crashed then Mdqa_store.Store.close store;
  match interrupt with
  | `Crash _ when not crashed ->
    Mdqa_store.Store.close store;
    None
  | _ -> (
    match Mdqa_store.Store.resume ~path () with
    | Ok (r, _) ->
      Some
        ( outcome_kind r.Chase.outcome,
          r.Chase.stats.Chase.egd_merges,
          r.Chase.instance )
    | Error e ->
      Alcotest.failf "resume: %s"
        (Format.asprintf "%a" Mdqa_store.Store.pp_load_error e))

(* Outcome kind, merge count and instance (up to hom-equivalence) agree
   across the chase, semi-naive and naive, the reference, a resume after
   a guard interrupt at every step count — which includes every round
   after a merge — and a resume after a crash at every journal record,
   which replays the merge records written since the last snapshot.
   Clashing runs agree on the kind only: how many merges land before
   the clash depends on the search order. *)
let prop_merge_path_agrees =
  QCheck.Test.make ~name:"EGD merges: chase = naive = reference = resume"
    ~count:200
    (QCheck.make ~print:Pretty.program_to_string gen_merge_program)
    (fun p ->
      let inst = Program.instance_of_facts p in
      let semi = Chase.run p inst in
      let kind = outcome_kind semi.Chase.outcome in
      let agrees (k, merges, i) =
        k = kind
        && (kind <> `Saturated
           || (merges = semi.Chase.stats.Chase.egd_merges
              && Core_inst.hom_equivalent i semi.Chase.instance))
      in
      let of_result (r : Chase.result) =
        (outcome_kind r.Chase.outcome, r.Chase.stats.Chase.egd_merges, r.Chase.instance)
      in
      let rec crashes n =
        match resume_after_interrupt p (`Crash n) with
        | None -> true
        | Some r -> agrees r && crashes (n + 1)
      in
      kind <> `Other
      && agrees (of_result (Chase.run ~semi_naive:false p inst))
      && agrees (reference_merge_chase p)
      && List.for_all
           (fun steps ->
             agrees (Option.get (resume_after_interrupt p (`Steps steps))))
           (List.init (semi.Chase.stats.Chase.triggers_checked + 1) succ)
      && crashes 0)

(* Differential planner check: Eval's planned, index-backed join
   against a nested loop that evaluates the body in source order over
   every tuple, with no index.  Bodies of 1-6 atoms mix constants,
   repeated variables and comparisons (sometimes over a variable the
   body never binds); instances are skewed towards one value so index
   buckets differ wildly in size, and a random subset of the facts is
   the semi-naive delta. *)

let skewed_const =
  QCheck.Gen.(
    frequency
      [ (6, return "c0"); (3, return "c1");
        (2, oneofl [ "c2"; "c3"; "c4"; "c5" ]) ])

let planner_preds = [ ("p", 1); ("q", 2); ("r", 3) ]

let gen_planner_case =
  QCheck.Gen.(
    let gen_term =
      frequency
        [ (4, map v (oneofl [ "X"; "Y"; "Z"; "W" ])); (1, map s skewed_const) ]
    in
    let gen_atom =
      let* pred, arity = oneofl planner_preds in
      map (atom pred) (list_repeat arity gen_term)
    in
    let gen_cmp =
      let* op =
        oneofl Atom.Cmp.[ Eq; Neq; Lt; Le; Gt; Ge ]
      and* l = map v (oneofl [ "X"; "Y"; "Z"; "W" ])
      and* r = gen_term in
      return (Atom.Cmp.make op l r)
    in
    let gen_rows arity =
      list_size (0 -- 14) (list_repeat arity skewed_const)
    in
    let* body = list_size (1 -- 6) gen_atom in
    let* cmps = list_size (0 -- 2) gen_cmp in
    let* rows =
      flatten_l
        (List.map
           (fun (pred, arity) -> map (fun rs -> (pred, arity, rs)) (gen_rows arity))
           planner_preds)
    in
    let* marks = list_repeat 64 bool in
    return (body, cmps, rows, marks))

let planner_case_arb =
  QCheck.make
    ~print:(fun (body, cmps, rows, _) ->
      Format.asprintf "@[<v>body: %a@,cmps: %a@,%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Atom.pp)
        body
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Atom.Cmp.pp)
        cmps
        (Format.pp_print_list (fun ppf (pred, _, rs) ->
             Format.fprintf ppf "%s: %s" pred
               (String.concat " "
                  (List.map (fun r -> "(" ^ String.concat "," r ^ ")") rs))))
        rows)
    gen_planner_case

let nested_loop inst body cmps =
  let rec go subst = function
    | [] -> [ subst ]
    | a :: rest -> (
      match R.Instance.find inst (Atom.pred a) with
      | None -> []
      | Some rel ->
        List.concat_map
          (fun t ->
            match
              Unify.match_against ~init:subst ~pattern:(Subst.apply_atom subst a)
                (Atom.of_fact (Atom.pred a) t)
            with
            | Some subst' -> go subst' rest
            | None -> [])
          (R.Relation.to_list rel))
  in
  List.filter
    (fun subst ->
      List.for_all
        (fun c -> Atom.Cmp.eval (Subst.apply_cmp subst c) = Some true)
        cmps)
    (go Subst.empty body)

let prop_planner_equals_nested_loop =
  QCheck.Test.make ~name:"planned join = source-order nested loop" ~count:400
    planner_case_arb (fun (body, cmps, rows, marks) ->
      let inst = instance_of rows in
      (* the delta: every fact whose insertion index is marked *)
      let delta_tbl = Hashtbl.create 16 in
      let k = ref 0 in
      List.iter
        (fun (pred, _, rs) ->
          List.iter
            (fun t ->
              if List.nth marks (!k mod 64) then Hashtbl.replace delta_tbl (pred, t) ();
              incr k)
            (tuples_of_strings rs))
        rows;
      let delta pred t = Hashtbl.mem delta_tbl (pred, t) in
      let key subst = Subst.to_list subst in
      let as_set l = List.sort_uniq compare (List.map key l) in
      let sorted l = List.sort compare (List.map key l) in
      let reference = nested_loop inst body cmps in
      let uses_delta subst =
        List.exists
          (fun a -> delta (Atom.pred a) (Atom.to_tuple (Subst.apply_atom subst a)))
          body
      in
      let got = Eval.answers ~cmps inst body in
      let ref_delta = sorted (List.filter uses_delta reference) in
      as_set got = as_set reference
      && Eval.exists ~cmps inst body = (got <> [])
      && sorted (delta_answers ~cmps inst ~delta body) = ref_delta)

(* Differential check of query answering: Query's head projection over
   the evaluator's slots against a reference kept here, which images
   every substitution of {!Eval.answers} through [Subst] and sorts.
   Heads repeat variables and carry constants (or are empty: boolean
   queries), bodies carry constants and comparisons, and instances hold
   labelled nulls.  A row cap that trips mid-enumeration must leave
   both sides with the same partial answers and the same exhaustion. *)

let value_of_name name =
  match name.[0] with
  | 'n' -> R.Value.Null (int_of_string (String.sub name 1 1))
  | _ -> R.Value.sym name

let gen_query_case =
  QCheck.Gen.(
    let* body, cmps, _, _ = gen_planner_case in
    let bound =
      List.fold_left
        (fun acc a -> Term.Var_set.union acc (Atom.vars a))
        Term.Var_set.empty body
    in
    let cmps =
      List.filter
        (fun c -> Term.Var_set.subset (Atom.Cmp.vars c) bound)
        cmps
    in
    let vars = Term.Var_set.elements bound in
    let gen_head_term =
      if vars = [] then map s skewed_const
      else frequency [ (3, map v (oneofl vars)); (1, map s skewed_const) ]
    in
    let* head = list_size (0 -- 4) gen_head_term in
    let gen_value =
      frequency [ (5, skewed_const); (2, oneofl [ "n0"; "n1"; "n2" ]) ]
    in
    let* rows =
      flatten_l
        (List.map
           (fun (pred, arity) ->
             map
               (fun rs -> (pred, arity, rs))
               (list_size (0 -- 14) (list_repeat arity gen_value)))
           planner_preds)
    in
    let* cap = 0 -- 12 in
    return (Query.make ~cmps ~head body, rows, cap))

let query_case_arb =
  QCheck.make
    ~print:(fun (q, rows, cap) ->
      Format.asprintf "@[<v>%a@,row cap %d@,%a@]" Query.pp q cap
        (Format.pp_print_list (fun ppf (pred, _, rs) ->
             Format.fprintf ppf "%s: %s" pred
               (String.concat " "
                  (List.map (fun r -> "(" ^ String.concat "," r ^ ")") rs))))
        rows)
    gen_query_case

let prop_query_projection_equals_subst =
  QCheck.Test.make ~name:"query head projection = Subst head image" ~count:400
    query_case_arb (fun (q, rows, cap) ->
      let inst = R.Instance.create () in
      List.iter
        (fun (pred, arity, rs) ->
          ignore
            (R.Instance.declare inst
               (R.Rel_schema.of_names pred
                  (List.init arity (Printf.sprintf "c%d"))));
          List.iter
            (fun r ->
              ignore
                (R.Instance.add_tuple inst pred
                   (R.Tuple.of_list (List.map value_of_name r))))
            rs)
        rows;
      let image sub =
        R.Tuple.of_list
          (List.map
             (fun t ->
               match Subst.walk sub t with
               | Term.Const c -> c
               | Term.Var x -> failwith ("unbound head variable " ^ x))
             q.Query.head)
      in
      let reference ~certain subs =
        List.sort_uniq R.Tuple.compare
          (List.filter
             (fun t -> not (certain && R.Tuple.has_null t))
             (List.map image subs))
      in
      let all = Eval.answers ~cmps:q.Query.cmps inst q.Query.body in
      let cap_guard () = Guard.create ~max_rows:cap ~check_every:1 () in
      let exhaustion =
        match Eval.answers ~guard:(cap_guard ()) ~cmps:q.Query.cmps inst q.Query.body with
        | _ -> None
        | exception Guard.Exhausted e -> Some e
      in
      let partial = List.filteri (fun i _ -> i < cap) all in
      let raised f =
        match f (cap_guard ()) with
        | l -> Ok l
        | exception Guard.Exhausted e -> Error e
      in
      let capped ~certain =
        match exhaustion with
        | None -> Ok (reference ~certain all)
        | Some e -> Error e
      in
      let no_rules = Program.make ~tgds:[] () in
      Query.matches inst q = reference ~certain:false all
      && Query.certain inst q = reference ~certain:true all
      && raised (fun guard -> Query.matches ~guard inst q) = capped ~certain:false
      && raised (fun guard -> Query.certain ~guard inst q) = capped ~certain:true
      && (match
            ( Answer.answer ~guard:(cap_guard ()) Answer.Chase no_rules inst q,
              exhaustion )
          with
          | Answer.Ok l, None -> l = reference ~certain:true all
          | Answer.Degraded { partial = l; exhaustion = e; _ }, Some e' ->
            l = reference ~certain:true partial && e = e'
          | _ -> false))

let prop_core_sound =
  QCheck.Test.make ~name:"core is a hom-equivalent retract" ~count:80
    program_arb (fun p ->
      let inst = Program.instance_of_facts p in
      let r = Chase.run p inst in
      QCheck.assume (r.Chase.outcome = Chase.Saturated);
      let core = Core_inst.compute r.Chase.instance in
      R.Instance.total_tuples core <= R.Instance.total_tuples r.Chase.instance
      && Core_inst.hom_equivalent core r.Chase.instance)

let prop_goal_directed_same =
  QCheck.Test.make ~name:"goal-directed chase preserves answers" ~count:100
    program_arb (fun p ->
      let inst = Program.instance_of_facts p in
      match
        ( Answer.of_fixpoint (Chase.run p inst) query_a,
          Answer.answer Answer.Chase p inst query_a )
      with
      | Answer.Ok xs, Answer.Ok ys -> xs = ys
      | _ -> QCheck.assume_fail ())

let prop_parser_total =
  (* the parser is total: any input either parses or raises
     Parser.Error — never a crash or another exception *)
  QCheck.Test.make ~name:"parser never crashes on arbitrary input" ~count:500
    (QCheck.make
       QCheck.Gen.(
         string_size ~gen:(map Char.chr (int_range 32 126)) (0 -- 60)))
    (fun input ->
      match Parser.parse_string input with
      | _ -> true
      | exception Parser.Error _ -> true)

let prop_parser_pretty_roundtrip =
  QCheck.Test.make ~name:"pretty -> parse -> pretty is a fixpoint" ~count:150
    program_arb (fun p ->
      let printed = Pretty.program_to_string p in
      let reparsed = (Parser.parse_string printed).Parser.program in
      String.equal printed (Pretty.program_to_string reparsed))

(* The printed facts read back to the same relations: what the parser
   loads from its buffer is what [make] loads from an atom list. *)
let prop_facts_roundtrip =
  QCheck.Test.make ~name:"printed facts reparse to the same instance"
    ~count:150 program_arb (fun p ->
      let printed = Pretty.program_to_string p in
      let reparsed = (Parser.parse_string printed).Parser.program in
      R.Instance.equal
        (Program.instance_of_facts reparsed)
        (Program.instance_of_facts p))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_proof_agrees_with_chase; prop_rewrite_agrees_with_chase;
      prop_chase_idempotent; prop_semi_naive_equals_naive;
      prop_existential_paths_agree;
      prop_merge_path_agrees;
      prop_planner_equals_nested_loop; prop_query_projection_equals_subst;
      prop_core_sound; prop_goal_directed_same;
      prop_parser_total; prop_parser_pretty_roundtrip; prop_facts_roundtrip ]

let case name f = Alcotest.test_case name `Quick f

let suites =
  [ ( "datalog.unify",
      [ case "basic unification" test_unify_basic;
        case "clashes" test_unify_clash;
        case "shared variables" test_unify_shared_var;
        case "one-way matching" test_match_one_way;
        case "subst conflicts" test_subst_conflict ] );
    ( "datalog.eval",
      [ case "join evaluation" test_eval_join;
        case "constants in atoms" test_eval_constants_in_atoms;
        case "comparison filters" test_eval_cmps;
        case "missing predicate" test_eval_missing_pred;
        case "delta-restricted answers" test_eval_delta ] );
    ( "datalog.chase",
      [ case "transitive closure" test_chase_transitive_closure;
        case "semi-naive agrees with naive" test_chase_semi_naive_agrees;
        case "existential nulls" test_chase_existential_nulls;
        case "restricted skips satisfied heads" test_chase_restricted_skips_satisfied;
        case "budget stops divergent chase" test_chase_budget_on_divergent;
        case "EGD merges null with constant" test_chase_egd_merges_null;
        case "EGD constant clash fails" test_chase_egd_constant_clash;
        case "NC violation fails" test_chase_nc_violation;
        case "NC with comparisons" test_chase_nc_with_cmp;
        case "input instance untouched" test_chase_input_not_mutated;
        case "multi-atom head shares one null" test_chase_multi_atom_head_shares_null;
        case "ground head adds only the missing atom"
          test_chase_ground_head_adds_missing;
        case "satisfied ground head neither fires nor adds"
          test_chase_ground_head_satisfied
      ] );
    ( "datalog.classes",
      [ case "join program: WS but not sticky" test_classes_join_program;
        case "linear cyclic: sticky, not WA" test_classes_linear_cyclic;
        case "non-WS program detected" test_classes_not_ws;
        case "wardedness" test_warded;
        case "guardedness" test_guarded_detection;
        case "position ranks" test_position_graph_ranks;
        case "finite special edge ranks" test_position_graph_finite_special;
        case "affected positions" test_affected_positions;
        case "separability conditions" test_separability ] );
    ( "datalog.query",
      [ case "certain answers filter nulls" test_query_certain_answers_filter_nulls;
        case "boolean entailment" test_query_boolean_entailment;
        case "inconsistency surfaces" test_query_inconsistent ] );
    ( "datalog.proof",
      [ case "EDB-only goals" test_proof_edb_only;
        case "goals via rules" test_proof_via_rule;
        case "existential gives no certain answer" test_proof_existential_not_answer;
        case "null never equals a constant" test_proof_existential_blocks_constant;
        case "multi-atom head lemma" test_proof_multi_atom_head_lemma;
        case "agrees with chase" test_proof_agrees_with_chase ] );
    ( "datalog.rewrite",
      [ case "simple unfolding + extensional disjunct" test_rewrite_simple_unfold;
        case "matches chase answers" test_rewrite_matches_chase;
        case "existential applicability" test_rewrite_existential_applicability;
        case "cyclic program handled" test_rewrite_cyclic_errors ] );
    ( "datalog.validation",
      [ case "constructor validation" test_constructor_validation;
        case "chase trigger budget" test_chase_trigger_budget;
        case "chase trigger-count regression guard" test_chase_efficiency_guard;
        case "EGD rows grow with merges, not merges x instance"
          test_egd_merge_rows_scale
      ] );
    ( "datalog.budgets",
      [ case "proof depth vs step truncation" test_proof_depth_budget;
        case "proof pruned at the depth bound is degraded"
          test_proof_depth_pruning_degrades;
        case "engines out of scope are refused" test_out_of_scope_refused;
        case "proof search stops at the guard's step budget"
          test_proof_under_guard_steps;
        case "rewrite CQ budget" test_rewrite_max_cqs_budget ] );
    ( "datalog.eval_corners",
      [ case "duplicate variables in an atom" test_eval_duplicate_vars_in_atom;
        case "constant join across atoms" test_eval_cross_atom_constant_join
      ] );
    ( "datalog.explain_render",
      [ case "pp names rules and leaves" test_explain_pp_smoke ] );
    ( "datalog.incremental",
      [ case "extend matches full re-chase" test_extend_matches_full_rechase;
        case "extend checks fewer triggers" test_extend_cheaper_than_full;
        case "extend carries provenance" test_extend_carries_provenance;
        case "extend detects new violations" test_extend_detects_new_violation;
        case "extend re-chases an unsaturated prior"
          test_extend_unsaturated_prior_rechases;
        case "resume with empty frontier runs a full round"
          test_resume_empty_frontier_full_round
      ] );
    ( "datalog.stickiness",
      [ case "base marking step" test_marking_base_step;
        case "marking propagation" test_marking_propagation ] );
    ( "datalog.goal_directed",
      [ case "drops irrelevant rules" test_restrict_drops_irrelevant;
        case "keeps constraint feeders" test_restrict_keeps_constraint_feeders;
        case "same answers, fewer rules" test_goal_directed_same_answers ] );
    ( "datalog.core",
      [ case "folds a redundant null" test_core_folds_redundant_null;
        case "keeps necessary nulls" test_core_keeps_necessary_null;
        case "core of oblivious = restricted (hospital)"
          test_core_oblivious_equals_restricted ] );
    ( "datalog.parser",
      [ case "program statements" test_parse_program;
        case "facts load in runs" test_program_load_runs;
        case "parse + chase end to end" test_parse_end_to_end;
        case "names are numbered per parse" test_parse_names_per_parse;
        case "existential head" test_parse_existential_head;
        case "multi-atom head" test_parse_multi_atom_head;
        case "error reporting" test_parse_errors;
        case "comparisons in queries" test_parse_comparisons;
        case "parse_query helper" test_parse_query_helper;
        case "pretty round-trip" test_pretty_roundtrip_fixed;
        case "parse_query rejects a trailing statement"
          test_parse_query_rejects_tail ] );
    ("datalog.properties", qcheck_cases) ]
