(* Fault-injection tests for the unified resource guard.

   Every exhaustion path — deadline, memory watermark, cancellation,
   step / null / row / CQ / repair-branch budgets — is triggered
   deterministically (injected clock and heap sampler, [~check_every:1])
   and each public entry point must return a well-formed partial result
   naming the exhausted resource, never raise or hang. *)

open Mdqa_datalog
module R = Mdqa_relational
module Context = Mdqa_context.Context
module Repair = Mdqa_context.Repair
module Hospital = Mdqa_hospital.Hospital

let v = Term.var
let atom p args = Atom.make p args
(* Rules are named after their heads unless a test names them. *)
let tgd ?name body head =
  let name =
    Option.value name ~default:(String.concat "," (List.map Atom.pred head))
  in
  Tgd.make ~name ~body ~head ()

let instance_of bindings =
  let inst = R.Instance.create () in
  List.iter
    (fun (name, arity, rows) ->
      ignore
        (R.Instance.declare inst
           (R.Rel_schema.of_names name (List.init arity (Printf.sprintf "c%d"))));
      List.iter
        (fun row ->
          ignore
            (R.Instance.add_tuple inst name
               (R.Tuple.of_list (List.map R.Value.sym row))))
        rows)
    bindings;
  inst

(* r(X,Y) -> ∃Z r(Y,Z): diverges without a budget *)
let divergent_program () =
  Program.make
    ~tgds:[ tgd [ atom "r" [ v "X"; v "Y" ] ] [ atom "r" [ v "Y"; v "Z" ] ] ]
    ()

let divergent_instance () = instance_of [ ("r", 2, [ [ "a"; "b" ] ]) ]

let resource_of_chase (r : Chase.result) =
  match r.Chase.outcome with
  | Chase.Out_of_budget e -> Some e.Guard.resource
  | _ -> None

let check_resource what expected got =
  Alcotest.(check string)
    what
    (Guard.resource_name expected)
    (match got with Some r -> Guard.resource_name r | None -> "(none)")

(* a well-formed partial chase result: the extensional seed is still
   there and the instance supports further (unguarded) evaluation *)
let check_partial_instance (r : Chase.result) =
  Alcotest.(check bool) "seed fact survives in the partial instance" true
    (Eval.exists r.Chase.instance
       [ atom "r" [ Term.sym "a"; Term.sym "b" ] ]);
  Alcotest.(check bool) "partial instance evaluates cleanly" true
    (List.length (Eval.answers r.Chase.instance [ atom "r" [ v "X"; v "Y" ] ])
    >= 1)

(* --- deadline ------------------------------------------------------- *)

let test_deadline_mid_chase () =
  (* a fake clock that advances 0.1s per observation: the 1s deadline
     expires after a handful of checks, mid-chase *)
  let t = ref 0. in
  let clock () =
    t := !t +. 0.1;
    !t
  in
  let guard = Guard.create ~timeout:1.0 ~clock ~check_every:1 () in
  let r = Chase.run ~guard (divergent_program ()) (divergent_instance ()) in
  check_resource "deadline named" Guard.Deadline (resource_of_chase r);
  check_partial_instance r;
  (match r.Chase.outcome with
   | Chase.Out_of_budget e ->
     Alcotest.(check bool) "used >= limit" true (e.Guard.used >= e.Guard.limit)
   | _ -> Alcotest.fail "expected Out_of_budget")

(* --- memory watermark ------------------------------------------------ *)

let test_memory_watermark () =
  (* a heap sampler that reports growth past the watermark after a few
     samples *)
  let samples = ref 0 in
  let heap_sampler () =
    incr samples;
    if !samples > 3 then 4096. else 1.
  in
  let guard = Guard.create ~max_memory_mb:512. ~heap_sampler ~check_every:1 () in
  let r = Chase.run ~guard (divergent_program ()) (divergent_instance ()) in
  check_resource "memory named" Guard.Memory (resource_of_chase r);
  check_partial_instance r

(* --- cancellation ---------------------------------------------------- *)

let test_cancellation () =
  let guard = Guard.create ~check_every:1 () in
  Guard.cancel guard;
  Alcotest.(check bool) "is_cancelled" true (Guard.is_cancelled guard);
  let r = Chase.run ~guard (divergent_program ()) (divergent_instance ()) in
  check_resource "cancellation named" Guard.Cancelled (resource_of_chase r);
  check_partial_instance r

(* --- step / null budgets --------------------------------------------- *)

let test_step_budget () =
  let guard = Guard.create ~max_steps:5 () in
  let r = Chase.run ~guard (divergent_program ()) (divergent_instance ()) in
  check_resource "steps named" Guard.Steps (resource_of_chase r);
  check_partial_instance r

let test_null_budget () =
  let guard = Guard.create ~max_nulls:5 () in
  let r = Chase.run ~guard (divergent_program ()) (divergent_instance ()) in
  check_resource "nulls named" Guard.Nulls (resource_of_chase r);
  check_partial_instance r;
  Alcotest.(check bool) "consumption records the nulls" true
    ((Guard.consumption guard).Guard.nulls >= 5)

(* --- eval row cap ----------------------------------------------------- *)

let test_eval_row_cap () =
  (* 6x6 cross join = 36 rows; cap at 4 *)
  let names = [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  let inst = instance_of [ ("p", 1, List.map (fun x -> [ x ]) names) ] in
  let guard = Guard.create ~max_rows:4 ~check_every:1 () in
  let partial = ref [] in
  match
    Eval.iter_matches ~guard inst [ atom "p" [ v "X" ]; atom "p" [ v "Y" ] ]
      (fun slots -> partial := slots.(0) :: !partial)
  with
  | () -> Alcotest.fail "expected a row-cap degradation"
  | exception Guard.Exhausted e ->
    check_resource "rows named" Guard.Rows (Some e.Guard.resource);
    Alcotest.(check bool) "partial rows within one of the cap" true
      (List.length !partial >= 4 && List.length !partial <= 5);
    (* every partial row is a genuine match *)
    List.iter
      (fun c ->
        Alcotest.(check bool) "match is well-formed" true
          (R.Value.is_constant c))
      !partial

(* --- rewrite CQ cap --------------------------------------------------- *)

let test_rewrite_cq_cap () =
  (* q <-> r cycle: unfolding cycles until the CQ budget trips *)
  let p =
    Program.make
      ~tgds:
        [ tgd [ atom "p0" [ v "X" ] ] [ atom "q" [ v "X" ] ];
          tgd [ atom "q" [ v "X" ] ] [ atom "r" [ v "X" ] ];
          tgd [ atom "r" [ v "X" ] ] [ atom "q" [ v "X" ] ] ]
      ()
  in
  let q = Query.make ~head:[ v "X" ] [ atom "q" [ v "X" ] ] in
  let guard = Guard.create ~max_cqs:1 () in
  match Rewrite.rewrite ~guard p q with
  | Guard.Complete _ -> Alcotest.fail "expected a CQ-cap degradation"
  | Guard.Degraded (rw, e) ->
    check_resource "cqs named" Guard.Cqs (Some e.Guard.resource);
    Alcotest.(check bool) "partial UCQ is non-empty" true (rw.Rewrite.ucq <> []);
    (* every partial disjunct is still evaluable *)
    let inst = instance_of [ ("p0", 1, [ [ "a" ] ]); ("q", 1, []); ("r", 1, []) ] in
    List.iter
      (fun cq -> ignore (Query.certain inst cq))
      rw.Rewrite.ucq

(* A complete directed graph on [n] nodes and its transitive closure:
   dense and cyclic, so both rewriting and proof search run without end
   and the k-th unfolding of [path(n1, Y)] has (n-1)^k matches. *)
let dense_path_program () =
  Program.make
    ~tgds:
      [ tgd [ atom "edge" [ v "X"; v "Y" ] ] [ atom "path" [ v "X"; v "Y" ] ];
        tgd
          [ atom "edge" [ v "X"; v "Y" ]; atom "path" [ v "Y"; v "Z" ] ]
          [ atom "path" [ v "X"; v "Z" ] ] ]
    ()

let dense_graph n =
  let node i = Printf.sprintf "n%d" i in
  instance_of
    [ ( "edge", 2,
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j -> if i = j then None else Some [ node i; node j ])
              (List.init n succ))
          (List.init n succ) );
      ("path", 2, []) ]

let path_from_n1 () =
  Query.make ~name:"reach" ~head:[ v "Y" ]
    [ atom "path" [ Term.Const (R.Value.sym "n1"); v "Y" ] ]

let test_rewrite_stops_at_trip () =
  (* 16 disjuncts would reach chains of 8 edges (3^8 matches); the row
     cap trips during the evaluation of a short one, and nothing is
     evaluated after it *)
  let guard = Guard.create ~max_cqs:16 ~max_rows:50 () in
  let profile = Mdqa_obs.Profile.create () in
  Mdqa_obs.Profile.install profile;
  let result =
    Fun.protect ~finally:Mdqa_obs.Profile.uninstall @@ fun () ->
    Rewrite.answers ~guard (dense_path_program ()) (dense_graph 4)
      (path_from_n1 ())
  in
  (match result with
   | Guard.Degraded (answers, e) ->
     check_resource "rows named" Guard.Rows (Some e.Guard.resource);
     Alcotest.(check bool) "partial answers kept" true (answers <> [])
   | Guard.Complete _ -> Alcotest.fail "expected a row-cap degradation");
  let scanned =
    List.fold_left
      (fun acc (_, a) -> acc + a.Mdqa_obs.Profile.scanned)
      0 (Mdqa_obs.Profile.snapshot profile).Mdqa_obs.Profile.atoms
  in
  Alcotest.(check bool)
    (Printf.sprintf "tuples walked after the trip are bounded (%d)" scanned)
    true (scanned <= 200)

let test_rewrite_cap_under_guard () =
  (* 14 layers of [pK(X) :- pJ(X), aK(X)] and [pK(X) :- pJ(X), bK(X)]:
     [p14(X)] unfolds into 2^15 - 1 disjuncts of at most 15 atoms, each
     evaluated at once over empty relations, so only the unfolding's
     own cap of 10,000 disjuncts can end it early; it must hold under a
     guard that sets no CQ budget of its own (the deadline is a
     backstop) *)
  let layer k side =
    let p j = atom (Printf.sprintf "p%d" j) [ v "X" ] in
    tgd [ p (k - 1); atom (Printf.sprintf "%s%d" side k) [ v "X" ] ] [ p k ]
  in
  let p =
    Program.make
      ~tgds:
        (List.concat_map
           (fun k -> [ layer k "a"; layer k "b" ])
           (List.init 14 succ))
      ()
  in
  let guard = Guard.create ~timeout:2. () in
  match
    Rewrite.answers ~guard p (Program.instance_of_facts p)
      (Query.make ~head:[ v "X" ] [ atom "p14" [ v "X" ] ])
  with
  | Guard.Degraded (answers, e) ->
    check_resource "cqs named" Guard.Cqs (Some e.Guard.resource);
    Alcotest.(check (float 0.)) "limit is the cap" 10_000. e.Guard.limit;
    Alcotest.(check int) "no answers" 0 (List.length answers);
    Alcotest.(check int) "the cap's disjuncts charged to the guard" 10_001
      (Guard.consumption guard).Guard.cqs
  | Guard.Complete _ -> Alcotest.fail "expected a CQ-cap degradation"

let test_eval_drops_duplicates () =
  (* a 7-edge walk from n1 over the complete 5-node graph has 4^7 =
     16,384 matches but 5 end points and 20 last edges: the answers
     stay exact while duplicates are dropped during the evaluation *)
  let node i = R.Value.sym (Printf.sprintf "n%d" i) in
  let y i = v (Printf.sprintf "Y%d" i) in
  let walk =
    atom "edge" [ Term.Const (node 1); y 1 ]
    :: List.init 6 (fun i -> atom "edge" [ y (i + 1); y (i + 2) ])
  in
  let inst = dense_graph 5 in
  let ends = Query.certain inst (Query.make ~head:[ y 7 ] walk) in
  Alcotest.(check int) "every node is an end point" 5 (List.length ends);
  let last = Query.certain inst (Query.make ~head:[ y 6; y 7 ] walk) in
  Alcotest.(check int) "every edge is a last edge" 20 (List.length last);
  Alcotest.(check bool) "sorted, no repeats" true
    (List.sort_uniq R.Tuple.compare last = last)

(* --- proof search under the guard ------------------------------------- *)

let test_proof_deadline () =
  (* the search on a dense cyclic program runs to its 2,000,000-step
     cap; a deadline bounds it like any other engine, and its steps are
     charged to the guard *)
  let t = ref 0. in
  let clock () =
    t := !t +. 0.1;
    !t
  in
  let guard = Guard.create ~timeout:1.0 ~clock ~check_every:1 () in
  let r =
    Proof.answer ~guard (dense_path_program ()) (dense_graph 4)
      (path_from_n1 ())
  in
  (match r with
   | Guard.Degraded (_, e) ->
     check_resource "deadline named" Guard.Deadline (Some e.Guard.resource)
   | Guard.Complete _ -> Alcotest.fail "expected a deadline degradation");
  let steps = (Guard.consumption guard).Guard.steps in
  Alcotest.(check bool)
    (Printf.sprintf "stopped within a few steps, charged to the guard (%d)"
       steps)
    true
    (steps > 0 && steps <= 20)

let test_proof_own_step_budget () =
  let r =
    Proof.answer
      ~guard:(Guard.create ~max_steps:100 ())
      (dense_path_program ()) (dense_graph 4) (path_from_n1 ())
  in
  match r with
  | Guard.Degraded (_, e) ->
    check_resource "steps named" Guard.Steps (Some e.Guard.resource);
    Alcotest.(check (float 0.)) "limit is max_steps" 100. e.Guard.limit;
    Alcotest.(check (float 0.)) "used" 101. e.Guard.used
  | Guard.Complete _ -> Alcotest.fail "expected a step-budget degradation"

(* --- repair branch budget ---------------------------------------------- *)

let test_repair_branch_budget () =
  let d x = { Repair.relation = "p"; tuple = R.Tuple.of_list [ R.Value.sym x ] } in
  (* many independent violations, two choices each: 2^n hitting sets *)
  let witnesses =
    List.init 8 (fun i ->
        { Repair.constraint_name = Printf.sprintf "c%d" i;
          deletions = [ d (Printf.sprintf "x%d" i); d (Printf.sprintf "y%d" i) ] })
  in
  let guard = Guard.create ~max_repair_branches:10 () in
  match Repair.repairs ~guard witnesses with
  | Guard.Complete _ -> Alcotest.fail "expected a branch-budget degradation"
  | Guard.Degraded (rs, e) ->
    check_resource "repair branches named" Guard.Repair_branches
      (Some e.Guard.resource);
    (* whatever was found is still a set of valid (complete) repairs *)
    List.iter
      (fun r ->
        Alcotest.(check bool) "partial repair hits every witness" true
          (List.for_all
             (fun w ->
               List.exists
                 (fun del -> List.mem del w.Repair.deletions)
                 r)
             witnesses))
      rs

(* --- Query end-to-end degradation -------------------------------------- *)

let test_query_degraded_partial_answers () =
  (* a terminating copy program, but the step budget stops the chase
     after a few of the 20 facts are copied *)
  let p =
    Program.make
      ~tgds:[ tgd [ atom "e" [ v "X" ] ] [ atom "t" [ v "X" ] ] ]
      ()
  in
  let inst =
    instance_of
      [ ("e", 1, List.init 20 (fun i -> [ Printf.sprintf "a%d" i ]));
        ("t", 1, []) ]
  in
  let q = Query.make ~head:[ v "X" ] [ atom "t" [ v "X" ] ] in
  let guard = Guard.create ~max_steps:5 () in
  let r = Chase.run ~guard p inst in
  Alcotest.(check bool) "stats are populated" true
    (r.Chase.stats.Chase.tgd_fires > 0);
  match Answer.of_fixpoint ~guard r q with
  | Answer.Ok _ -> Alcotest.fail "expected degradation"
  | Answer.Inconsistent _ -> Alcotest.fail "unexpected inconsistency"
  | Answer.Refused _ -> Alcotest.fail "the chase is never refused"
  | Answer.Degraded { partial; exhaustion } ->
    check_resource "steps named" Guard.Steps (Some exhaustion.Guard.resource);
    Alcotest.(check bool) "some but not all answers" true
      (partial <> [] && List.length partial < 20);
    Alcotest.(check bool) "partials are sound (all copied from e)" true
      (List.for_all
         (fun t ->
           Eval.holds_fact inst
             (Atom.make "e"
                (List.map (fun x -> Term.Const x) (R.Tuple.to_list t))))
         partial)

(* --- context assessment degradation ------------------------------------- *)

let test_context_degraded_assessment () =
  let ctx = Hospital.context () in
  let guard = Guard.create ~max_steps:8 () in
  let a = Context.assess ~guard ctx ~source:(Hospital.source ()) in
  (match Context.degradation a with
   | None -> Alcotest.fail "expected a degraded assessment"
   | Some e ->
     check_resource "steps named" Guard.Steps (Some e.Guard.resource));
  (* strict read refuses the partial chase; ~partial exposes it *)
  Alcotest.(check bool) "strict quality version withheld" true
    (Context.quality_version a "measurements" = None);
  (match Context.quality_version ~partial:true a "measurements" with
   | None -> Alcotest.fail "partial quality version missing"
   | Some q ->
     (* an under-approximation of the paper's Table II *)
     Alcotest.(check bool) "partial ⊆ Table II" true
       (R.Tuple.Set.subset (R.Relation.to_set q)
          (R.Relation.to_set Hospital.expected_measurements_q)));
  let report = Mdqa_context.Assessment.report ~partial:true a in
  Alcotest.(check bool) "partial report covers measurements" true
    (List.exists
       (fun (rr : Mdqa_context.Assessment.relation_report) ->
         rr.Mdqa_context.Assessment.relation = "measurements")
       report)

let test_context_unguarded_still_complete () =
  (* regression: without any guard the pipeline still saturates and
     reproduces Table II *)
  let a = Context.assess (Hospital.context ()) ~source:(Hospital.source ()) in
  Alcotest.(check bool) "no degradation" true (Context.degradation a = None);
  match Context.quality_version a "measurements" with
  | Some q ->
    Alcotest.(check bool) "Table II" true
      (R.Tuple.Set.equal (R.Relation.to_set q)
         (R.Relation.to_set Hospital.expected_measurements_q))
  | None -> Alcotest.fail "quality version missing"

(* --- cautious answers under a global guard ------------------------------ *)

let test_cautious_answers_degraded () =
  let ctx = Hospital.context ~raw_patient_ward:true () in
  let guard = Guard.create ~max_steps:8 () in
  match
    Repair.cautious_answers ~guard ctx ~source:(Hospital.source ())
      Hospital.doctor_query
  with
  | Error e -> Alcotest.fail e
  | Ok (Guard.Complete _) -> Alcotest.fail "expected degradation"
  | Ok (Guard.Degraded (answers, e)) ->
    check_resource "steps named" Guard.Steps (Some e.Guard.resource);
    (* the intersection over partial chases under-approximates the
       complete cautious answers (row 1 of Table I) *)
    Alcotest.(check bool) "partial ⊆ complete cautious answers" true
      (List.for_all
         (fun t ->
           R.Tuple.equal t
             (R.Tuple.of_list
                [ R.Value.sym "Sep/5-12:10"; R.Value.sym "Tom Waits";
                  R.Value.real 38.2 ]))
         answers)

(* --- guard bookkeeping --------------------------------------------------- *)

let test_guard_consumption_and_outcome_helpers () =
  let guard = Guard.create ~max_steps:3 () in
  Guard.count_step guard;
  Guard.count_step guard;
  let c = Guard.consumption guard in
  Alcotest.(check int) "steps counted" 2 c.Guard.steps;
  Alcotest.(check bool) "not tripped yet" true (Guard.exhaustion guard = None);
  Alcotest.(check int) "value of Complete" 7 (Guard.value (Guard.Complete 7));
  let e = { Guard.resource = Guard.Steps; limit = 3.; used = 4. } in
  Alcotest.(check int) "value of Degraded" 7
    (Guard.value (Guard.Degraded (7, e)));
  Alcotest.(check bool) "degraded detected" true
    (Guard.degraded (Guard.Degraded (7, e)) = Some e)

let test_pp_exhaustion_limit_as_given () =
  let e = { Guard.resource = Guard.Deadline; limit = 2e-05; used = 0.0004 } in
  Alcotest.(check string) "sub-millisecond limit"
    "deadline exceeded (0.000s elapsed, limit 2e-05s)"
    (Format.asprintf "%a" Guard.pp_exhaustion e)

let test_guard_trip_is_sticky () =
  (* once tripped, every later count re-raises with the same report *)
  let guard = Guard.create ~max_steps:1 () in
  Guard.count_step guard;
  (match Guard.count_step guard with
   | () -> Alcotest.fail "expected a trip"
   | exception Guard.Exhausted e ->
     Alcotest.(check bool) "steps" true (e.Guard.resource = Guard.Steps));
  match Guard.count_null guard with
  | () -> Alcotest.fail "expected the trip to stick"
  | exception Guard.Exhausted e ->
    Alcotest.(check bool) "same resource re-reported" true
      (e.Guard.resource = Guard.Steps)

let case name f = Alcotest.test_case name `Quick f

let suites =
  [ ( "guard.fault-injection",
      [ case "deadline mid-chase" test_deadline_mid_chase;
        case "memory watermark" test_memory_watermark;
        case "cancellation" test_cancellation;
        case "step budget" test_step_budget;
        case "null budget" test_null_budget;
        case "eval row cap" test_eval_row_cap;
        case "rewrite CQ cap" test_rewrite_cq_cap;
        case "rewrite stops at the trip" test_rewrite_stops_at_trip;
        case "rewrite disjunct cap under any guard"
          test_rewrite_cap_under_guard;
        case "evaluation drops duplicate images" test_eval_drops_duplicates;
        case "proof search deadline" test_proof_deadline;
        case "proof search step budget" test_proof_own_step_budget;
        case "repair branch budget" test_repair_branch_budget ] );
    ( "guard.degradation",
      [ case "query: partial answers + stats" test_query_degraded_partial_answers;
        case "context: partial assessment" test_context_degraded_assessment;
        case "context: unguarded still complete"
          test_context_unguarded_still_complete;
        case "cautious answers under a global guard"
          test_cautious_answers_degraded;
        case "consumption + outcome helpers"
          test_guard_consumption_and_outcome_helpers;
        case "deadline limit printed as given"
          test_pp_exhaustion_limit_as_given;
        case "trip is sticky" test_guard_trip_is_sticky ] ) ]
