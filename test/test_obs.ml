(* Properties and unit tests for the telemetry subsystem (lib/obs).

   The metrics registry's merge is the load-bearing algebra: snapshots
   taken on different registries (per-run, per-service) must combine
   associatively and commutatively without losing observations, or the
   exposition lies.  The tracer's begin/end pairing must survive
   exceptions, or nesting depths drift and exported traces are
   malformed.  Both are checked with random inputs, alongside direct
   tests of bucketing, exposition rendering, trace export and the
   logger. *)

module Metrics = Mdqa_obs.Metrics
module Trace = Mdqa_obs.Trace
module Logger = Mdqa_obs.Logger
module Jsonl = Mdqa_obs.Jsonl

(* --- histogram properties -------------------------------------------- *)

(* Integer-valued observations keep float sums exact, so count/sum
   preservation can be checked with [=]. *)
let obs_list_gen = QCheck.Gen.(list_size (int_bound 40) (int_bound 1000))

let obs_list_arb =
  QCheck.make ~print:QCheck.Print.(list int) obs_list_gen

let snapshot_of obs =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~help:"test histogram" "test_seconds" in
  List.iter (fun v -> Metrics.observe h (float_of_int v)) obs;
  Metrics.snapshot m

let histo snap =
  match Metrics.find_histogram snap "test_seconds" with
  | Some h -> h
  | None -> { Metrics.hcount = 0; hsum = 0.; hbuckets = [] }

let sum_int l = List.fold_left ( + ) 0 l

let prop_merge_commutative =
  QCheck.Test.make ~name:"snapshot merge is commutative" ~count:200
    (QCheck.pair obs_list_arb obs_list_arb) (fun (a, b) ->
      Metrics.merge (snapshot_of a) (snapshot_of b)
      = Metrics.merge (snapshot_of b) (snapshot_of a))

let prop_merge_associative =
  QCheck.Test.make ~name:"snapshot merge is associative" ~count:200
    (QCheck.triple obs_list_arb obs_list_arb obs_list_arb) (fun (a, b, c) ->
      let sa = snapshot_of a and sb = snapshot_of b and sc = snapshot_of c in
      Metrics.merge (Metrics.merge sa sb) sc
      = Metrics.merge sa (Metrics.merge sb sc))

let prop_merge_preserves_count_sum =
  QCheck.Test.make ~name:"merge preserves histogram count and sum" ~count:200
    (QCheck.pair obs_list_arb obs_list_arb) (fun (a, b) ->
      let h = histo (Metrics.merge (snapshot_of a) (snapshot_of b)) in
      h.Metrics.hcount = List.length a + List.length b
      && h.Metrics.hsum = float_of_int (sum_int a + sum_int b)
      && sum_int (List.map snd h.Metrics.hbuckets) = h.Metrics.hcount)

let prop_bucketing =
  QCheck.Test.make ~name:"observations land in their log2 bucket" ~count:200
    QCheck.(float_range 1e-9 1e12) (fun v ->
      let m = Metrics.create () in
      let h = Metrics.histogram m "test_seconds" in
      Metrics.observe h v;
      let snap = Metrics.snapshot m in
      match (histo snap).Metrics.hbuckets with
      | [ (e, 1) ] ->
        v < Metrics.bucket_upper e && v >= Metrics.bucket_upper e /. 2.
      | _ -> false)

(* --- counter properties ---------------------------------------------- *)

let prop_counter_monotone =
  QCheck.Test.make ~name:"counters only go up" ~count:200
    QCheck.(list_of_size Gen.(int_bound 30) (int_bound 100)) (fun incs ->
      let m = Metrics.create () in
      let c = Metrics.counter m "ups_total" in
      List.for_all
        (fun n ->
          let before = Metrics.counter_value c in
          Metrics.add c n;
          Metrics.counter_value c = before + n)
        incs)

let test_counter_rejects_negative () =
  let m = Metrics.create () in
  let c = Metrics.counter m "t_total" in
  Alcotest.check_raises "add -1 raises"
    (Invalid_argument "Metrics.add: negative increment") (fun () ->
      Metrics.add c (-1))

let test_register_kind_clash () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  (match Metrics.gauge m "x" with
  | _ -> Alcotest.fail "re-registering x as a gauge must raise"
  | exception Invalid_argument _ -> ());
  (* same name and kind is idempotent: both handles hit one cell *)
  let c1 = Metrics.counter m "x" and c2 = Metrics.counter m "x" in
  Metrics.inc c1;
  Metrics.inc c2;
  Alcotest.(check int) "shared cell" 2 (Metrics.counter_value c1)

(* --- span nesting under exceptions ----------------------------------- *)

exception Boom

(* A random tree of spans, some of which raise: whatever happens, every
   span closes (depth back to 0), every exported duration is >= 0, and
   the event count equals the number of spans entered. *)
let span_tree_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf = map (fun b -> `Leaf b) bool in
        if n <= 0 then leaf
        else
          frequency
            [ (1, leaf);
              (2,
               map2
                 (fun raises kids -> `Node (raises, kids))
                 bool
                 (list_size (int_bound 3) (self (n / 2)))) ]))

let rec span_count = function
  | `Leaf _ -> 1
  | `Node (_, kids) -> 1 + List.fold_left (fun a k -> a + span_count k) 0 kids

let rec run_tree t =
  match t with
  | `Leaf raises ->
    Trace.with_span "leaf" (fun () -> if raises then raise Boom)
  | `Node (raises, kids) ->
    Trace.with_span "node" (fun () ->
        List.iter (fun k -> try run_tree k with Boom -> ()) kids;
        if raises then raise Boom)

let rec tree_print = function
  | `Leaf b -> Printf.sprintf "L%b" b
  | `Node (b, kids) ->
    Printf.sprintf "N%b(%s)" b (String.concat "," (List.map tree_print kids))

let prop_spans_survive_exceptions =
  QCheck.Test.make ~name:"span begin/end pairs survive exceptions" ~count:200
    (QCheck.make ~print:tree_print span_tree_gen) (fun tree ->
      let tr = Trace.create () in
      Trace.install tr;
      Fun.protect ~finally:Trace.uninstall (fun () ->
          (try run_tree tree with Boom -> ());
          Trace.depth tr = 0
          && List.length (Trace.events tr) = span_count tree
          && List.for_all
               (fun e -> e.Trace.dur >= 0. && e.Trace.depth >= 1)
               (Trace.events tr)))

(* --- trace export ----------------------------------------------------- *)

let test_export_is_valid_json () =
  let now = ref 0. in
  let clock () =
    now := !now +. 0.001;
    !now
  in
  let tr = Trace.create ~clock () in
  Trace.install tr;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      Trace.with_span "outer" ~attrs:[ ("k", "v \"quoted\"") ] (fun () ->
          Trace.with_span "inner" (fun () -> ())));
  match Jsonl.parse (Jsonl.to_string (Trace.export_json tr)) with
  | Error e -> Alcotest.failf "export does not parse: %s" e
  | Ok json ->
    let events =
      match Option.bind (Jsonl.member "traceEvents" json) Jsonl.to_list with
      | Some evs -> evs
      | None -> Alcotest.fail "no traceEvents"
    in
    Alcotest.(check int) "two events" 2 (List.length events);
    List.iter
      (fun ev ->
        Alcotest.(check bool) "has name" true (Jsonl.str_field "name" ev <> None);
        Alcotest.(check bool) "has ts" true (Jsonl.num_field "ts" ev <> None);
        match Jsonl.str_field "ph" ev with
        | Some "X" ->
          Alcotest.(check bool) "X has dur" true
            (match Jsonl.num_field "dur" ev with
            | Some d -> d >= 0.
            | None -> false)
        | other ->
          Alcotest.failf "unexpected ph %s" (Option.value ~default:"-" other))
      events

let test_ring_buffer_drops_oldest () =
  let tr = Trace.create ~capacity:4 () in
  Trace.install tr;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      for i = 1 to 10 do
        Trace.with_span (string_of_int i) (fun () -> ())
      done);
  let names = List.map (fun e -> e.Trace.name) (Trace.events tr) in
  Alcotest.(check (list string)) "keeps the newest" [ "7"; "8"; "9"; "10" ]
    names;
  Alcotest.(check int) "counts the dropped" 6 (Trace.dropped tr)

(* --- prometheus exposition -------------------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_prometheus_exposition () =
  let m = Metrics.create () in
  let c =
    Metrics.counter m ~help:"requests" ~labels:[ ("kind", "query") ]
      "req_total"
  in
  Metrics.add c 3;
  Metrics.set (Metrics.gauge m ~help:"queue depth" "depth") 2.5;
  let h = Metrics.histogram m ~help:"latency" "lat_seconds" in
  Metrics.observe h 0.75;
  Metrics.observe h 3.;
  let text = Metrics.to_prometheus (Metrics.snapshot m) in
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "exposition has %S" line) true
        (contains text line))
    [ "# TYPE req_total counter";
      "# HELP req_total requests";
      "req_total{kind=\"query\"} 3";
      "depth 2.5";
      "# TYPE lat_seconds histogram";
      "lat_seconds_count 2";
      "lat_seconds_sum 3.75";
      "+Inf\"} 2" ]

(* --- logger ------------------------------------------------------------ *)

let with_captured_logger f =
  let buf = Buffer.create 256 in
  Logger.set_output (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n');
  Logger.set_clock (fun () -> 1754000000.5);
  Fun.protect
    ~finally:(fun () ->
      Logger.set_level Logger.Info;
      Logger.set_json false;
      Logger.set_clock Unix.gettimeofday;
      Logger.set_output (fun line ->
          prerr_string line;
          prerr_newline ();
          flush stderr))
    (fun () -> f buf)

let test_logger_json_and_levels () =
  with_captured_logger @@ fun buf ->
  Logger.set_json true;
  Logger.set_level Logger.Info;
  Logger.debug "suppressed";
  Logger.info
    ~fields:
      [ ("n", Logger.Int 7); ("f", Logger.Float 1.5);
        ("ok", Logger.Bool true); ("s", Logger.Str "a \"b\"") ]
    "served";
  let lines =
    String.split_on_char '\n' (String.trim (Buffer.contents buf))
  in
  Alcotest.(check int) "one record (debug suppressed)" 1 (List.length lines);
  match Jsonl.parse (List.hd lines) with
  | Error e -> Alcotest.failf "JSONL record does not parse: %s" e
  | Ok json ->
    Alcotest.(check (option string)) "level" (Some "info")
      (Jsonl.str_field "level" json);
    Alcotest.(check (option string)) "msg" (Some "served")
      (Jsonl.str_field "msg" json);
    Alcotest.(check (option string)) "string field" (Some "a \"b\"")
      (Jsonl.str_field "s" json);
    Alcotest.(check bool) "ts is ISO8601 UTC" true
      (match Jsonl.str_field "ts" json with
      | Some ts ->
        String.length ts = 24
        && ts.[4] = '-' && ts.[10] = 'T' && ts.[23] = 'Z'
      | None -> false)

let test_logger_text_format () =
  with_captured_logger @@ fun buf ->
  Logger.set_level Logger.Warn;
  Logger.info "suppressed";
  Logger.warn ~fields:[ ("addr", Logger.Str "a b") ] "listening";
  let line = String.trim (Buffer.contents buf) in
  Alcotest.(check bool) "has level" true (contains line " warn ");
  Alcotest.(check bool) "has message" true (contains line "listening");
  Alcotest.(check bool) "quotes spaced values" true
    (contains line "addr=\"a b\"")

let test_level_of_string () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check bool) s true (Logger.level_of_string s = expect))
    [ ("debug", Some Logger.Debug); ("warning", Some Logger.Warn);
      ("ERROR", Some Logger.Error); ("loud", None) ]

(* --- profiler properties ---------------------------------------------- *)

module Profile = Mdqa_obs.Profile

(* Snapshots are generated by replaying op scripts against a collector
   with a fake integer clock, so every accumulated duration is an exact
   float and merge algebra can be checked with [=].  The ops exercise
   every table: per-rule totals, scoped atom visits, rounds, queries and
   phases. *)
(* Credit one visit of an atom under the current scope. *)
let atom_visit p ~idx ~pred ~step ~key ~scanned ~matched =
  Option.iter
    (Profile.count_visit ~scanned ~matched)
    (Profile.atom_cell p ~idx ~pred ~step ~key)

let profile_snapshot_of ops =
  let tick = ref 0. in
  let clock () = !tick in
  let p = Profile.create ~clock () in
  Profile.install p;
  Fun.protect ~finally:Profile.uninstall @@ fun () ->
  List.iter
    (fun n ->
      let rname = Printf.sprintf "r%d" (n mod 3) in
      match n mod 5 with
      | 0 | 1 ->
        Profile.add_rule p rname
          { Profile.fires = n mod 2; triggers = n mod 3; matches = n mod 5;
            rule_seconds = float_of_int (n mod 9);
            enumerate_seconds = float_of_int (n mod 4);
            probe_seconds = float_of_int (n mod 2);
            insert_seconds = float_of_int (n mod 3) }
      | 2 ->
        Profile.with_scope p rname (fun () ->
            atom_visit p ~idx:(n mod 2) ~pred:"p" ~step:(n mod 3)
              ~key:(if n mod 7 < 4 then "scan" else "key=(0)")
              ~scanned:(n mod 11) ~matched:(n mod 4))
      | 3 ->
        Trace.with_span "chase.round"
          ~attrs:[ ("round", string_of_int (n mod 4)) ]
          (fun () -> tick := !tick +. float_of_int (n mod 6))
      | _ ->
        Trace.with_span "eval"
          ~attrs:[ ("query", Printf.sprintf "q%d" (n mod 2)) ]
          (fun () -> tick := !tick +. 1.))
    ops;
  Profile.snapshot p

(* Structural equality, ignoring GC readings: the chase.round op
   samples the real [Gc.quick_stat], so two replays of the same script
   may legitimately observe different collection counts.  The algebra
   under test (counter and duration combination) is unaffected. *)
let strip_gc (s : Profile.snapshot) =
  { s with
    Profile.rounds =
      List.map
        (fun (n, (r : Profile.round_stat)) ->
          ( n,
            { r with
              Profile.minor_collections = 0; major_collections = 0;
              heap_words = 0 } ))
        s.Profile.rounds }

let prop_profile_merge_commutative =
  QCheck.Test.make ~name:"profile merge is commutative" ~count:200
    (QCheck.pair obs_list_arb obs_list_arb) (fun (a, b) ->
      let sa = profile_snapshot_of a and sb = profile_snapshot_of b in
      Profile.merge sa sb = Profile.merge sb sa)

let prop_profile_merge_associative =
  QCheck.Test.make ~name:"profile merge is associative" ~count:200
    (QCheck.triple obs_list_arb obs_list_arb obs_list_arb) (fun (a, b, c) ->
      let sa = profile_snapshot_of a
      and sb = profile_snapshot_of b
      and sc = profile_snapshot_of c in
      Profile.merge (Profile.merge sa sb) sc
      = Profile.merge sa (Profile.merge sb sc))

let prop_profile_merge_identity =
  QCheck.Test.make ~name:"empty is the merge identity" ~count:200
    obs_list_arb (fun a ->
      let s = profile_snapshot_of a in
      Profile.merge s Profile.empty = s
      && Profile.merge Profile.empty s = s)

let prop_profile_merge_counts_sum =
  QCheck.Test.make ~name:"merge sums counters and durations" ~count:200
    (QCheck.pair obs_list_arb obs_list_arb) (fun (a, b) ->
      let sa = strip_gc (profile_snapshot_of a)
      and sb = strip_gc (profile_snapshot_of b) in
      let m = Profile.merge sa sb in
      let rule_fires (s : Profile.snapshot) =
        sum_int (List.map (fun (_, r) -> r.Profile.fires) s.Profile.rules)
      and atom_scans (s : Profile.snapshot) =
        sum_int (List.map (fun (_, a) -> a.Profile.scanned) s.Profile.atoms)
      and query_evals (s : Profile.snapshot) =
        sum_int (List.map (fun (_, q) -> q.Profile.evals) s.Profile.queries)
      in
      rule_fires m = rule_fires sa + rule_fires sb
      && atom_scans m = atom_scans sa + atom_scans sb
      && query_evals m = query_evals sa + query_evals sb
      && Profile.total_rule_seconds m
         = Profile.total_rule_seconds sa +. Profile.total_rule_seconds sb
      && Profile.total_query_seconds m
         = Profile.total_query_seconds sa +. Profile.total_query_seconds sb)

let prop_profile_json_parses =
  QCheck.Test.make ~name:"to_json is valid JSON with all sections"
    ~count:100 obs_list_arb (fun a ->
      let s = profile_snapshot_of a in
      match Jsonl.parse (Jsonl.to_string (Profile.to_json s)) with
      | Error _ -> false
      | Ok json ->
        List.for_all
          (fun k -> Jsonl.member k json <> None)
          [ "rules"; "atoms"; "rounds"; "queries"; "phases" ])

(* Every *_seconds field prints as a JSON float, even when the time is
   integral: a rule with no triggers probes for 0.0 s, and a fake clock
   makes every phase, round and query time a whole number. *)
let test_profile_json_seconds_are_floats () =
  let tick = ref 0. in
  let p = Profile.create ~clock:(fun () -> tick := !tick +. 1.; !tick) () in
  Profile.install p;
  Fun.protect ~finally:Profile.uninstall (fun () ->
      Profile.add_rule p "idle"
        { Profile.fires = 0; triggers = 0; matches = 0; rule_seconds = 2.;
          enumerate_seconds = 1.; probe_seconds = 0.; insert_seconds = 0. };
      Trace.with_span "chase" (fun () ->
          Trace.with_span "chase.round" ~attrs:[ ("round", "1") ] (fun () ->
              Trace.with_span "eval" ~attrs:[ ("query", "q") ] ignore)));
  let text = Jsonl.to_string (Profile.to_json (Profile.snapshot p)) in
  let key = "seconds\":" in
  let n = String.length text and k = String.length key in
  let rec scan i seen =
    if i + k > n then seen
    else if String.sub text i k <> key then scan (i + 1) seen
    else begin
      let j = ref (i + k) in
      while !j < n && not (String.contains ",}" text.[!j]) do incr j done;
      let literal = String.sub text (i + k) (!j - i - k) in
      if not (String.exists (fun c -> c = '.' || c = 'e') literal) then
        Alcotest.failf "a seconds field printed as %s in %s" literal text;
      scan !j (seen + 1)
    end
  in
  (* five per rule, one each for the round and the query, and one phase
     per scope name *)
  Alcotest.(check int) "seconds fields checked" 10 (scan 0 0)

let test_profile_scope_discipline () =
  let p = Profile.create ~clock:(fun () -> 0.) () in
  Profile.install p;
  Fun.protect ~finally:Profile.uninstall @@ fun () ->
  Alcotest.(check bool) "no scope outside with_scope" true
    (Profile.scoped () = None);
  (* an unscoped visit must attribute nothing *)
  atom_visit p ~idx:0 ~pred:"p" ~step:0 ~key:"scan" ~scanned:5
    ~matched:2;
  Alcotest.(check int) "unscoped visit dropped" 0
    (List.length (Profile.snapshot p).Profile.atoms);
  Profile.with_scope p "r" (fun () ->
      Alcotest.(check bool) "scoped inside" true (Profile.scoped () <> None);
      atom_visit p ~idx:1 ~pred:"q" ~step:0 ~key:"scan" ~scanned:3
        ~matched:3);
  Alcotest.(check bool) "scope restored" true (Profile.scoped () = None);
  match Profile.find_atom (Profile.snapshot p) ("r", 1, "q") with
  | Some a ->
    Alcotest.(check int) "visits" 1 a.Profile.visits;
    Alcotest.(check int) "scanned" 3 a.Profile.scanned;
    Alcotest.(check int) "matched" 3 a.Profile.matched
  | None -> Alcotest.fail "scoped visit not attributed"

(* Visits count every substitution arriving at an atom, including index
   probes that hit an empty bucket.  a has 4 rows and b 8, so the join
   starts at a (one visit, fan-out 4) and probes b once per X: the
   buckets for X=1,2,3,4 hold 2, 0, 1 and 0 rows, so b sees 4 visits, 3
   scanned tuples and 3 matches — two visits die on a miss. *)
let test_profile_visits_count_bucket_misses () =
  let module R = Mdqa_relational in
  let module D = Mdqa_datalog in
  let p = Profile.create ~clock:(fun () -> 0.) () in
  Profile.install p;
  Fun.protect ~finally:Profile.uninstall @@ fun () ->
  let inst = R.Instance.create () in
  ignore (R.Instance.declare inst (R.Rel_schema.of_names "a" [ "x" ]));
  ignore (R.Instance.declare inst (R.Rel_schema.of_names "b" [ "x"; "y" ]));
  let add pred row =
    ignore
      (R.Instance.add_tuple inst pred
         (R.Tuple.of_list (List.map R.Value.sym row)))
  in
  List.iter (fun x -> add "a" [ x ]) [ "1"; "2"; "3"; "4" ];
  List.iter
    (fun (x, y) -> add "b" [ x; y ])
    [ ("1", "x"); ("1", "y"); ("3", "z"); ("5", "p"); ("6", "q");
      ("7", "r"); ("8", "s"); ("9", "t") ];
  let v name = D.Term.Var name in
  let body =
    [ D.Atom.make "a" [ v "X" ]; D.Atom.make "b" [ v "X"; v "Y" ] ]
  in
  let answers = Profile.with_scope p "q" (fun () -> D.Eval.answers inst body) in
  Alcotest.(check int) "answers" 3 (List.length answers);
  let snap = Profile.snapshot p in
  let stat idx pred =
    match Profile.find_atom snap ("q", idx, pred) with
    | Some a -> (a.Profile.visits, a.Profile.scanned, a.Profile.matched)
    | None -> Alcotest.failf "no row for q[%d] %s" idx pred
  in
  Alcotest.(check (triple int int int)) "a: visits scanned matched" (1, 4, 4)
    (stat 0 "a");
  Alcotest.(check (triple int int int)) "b: visits scanned matched" (4, 3, 3)
    (stat 1 "b");
  match Profile.find_atom snap ("q", 1, "b") with
  | Some b ->
    Alcotest.(check (float 1e-9)) "fan-out at b" 0.75 (Profile.fan_out b);
    Alcotest.(check (float 1e-9)) "selectivity at b" 1.0
      (Profile.selectivity b)
  | None -> assert false

let test_profile_off_is_transparent () =
  Alcotest.(check bool) "inactive by default" false (Profile.active ());
  (* a scope must reduce to a plain call when no sink is installed *)
  let r =
    Trace.with_span "chase.round" ~attrs:[ ("round", "1") ] (fun () ->
        Trace.with_span "x" (fun () -> 41 + 1))
  in
  Alcotest.(check int) "value passes through" 42 r

(* The acceptance pin: profiling the paper's hospital assessment must
   attribute positive time to every rule provenance says derived a
   known quality fact.  A fake strictly-increasing clock makes "every
   enumerated rule accrues time" deterministic — no dependence on
   wall-clock resolution. *)
let test_profile_attributes_hospital_rules () =
  let module Context = Mdqa_context.Context in
  let module Hospital = Mdqa_hospital.Hospital in
  let module Explain = Mdqa_datalog.Explain in
  let module R = Mdqa_relational in
  let tick = ref 0. in
  let p = Profile.create ~clock:(fun () -> tick := !tick +. 1.; !tick) () in
  Profile.install p;
  Fun.protect ~finally:Profile.uninstall @@ fun () ->
  let a =
    Context.assess ~provenance:true (Hospital.context ())
      ~source:(Hospital.source ())
  in
  let snap = Profile.snapshot p in
  let row =
    R.Tuple.of_list
      [ R.Value.sym "Sep/5-12:10"; R.Value.sym "Tom Waits";
        R.Value.real 38.2 ]
  in
  match Context.explain a "measurements" row with
  | Error e -> Alcotest.fail e
  | Ok tree ->
    let used = Explain.rules_used tree in
    Alcotest.(check bool) "provenance names rules" true (used <> []);
    List.iter
      (fun rule ->
        match Profile.find_rule snap rule with
        | None -> Alcotest.failf "no profile entry for rule %s" rule
        | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "%s accrued time" rule)
            true
            (r.Profile.rule_seconds > 0.))
      used;
    Alcotest.(check bool) "chase phase recorded" true
      (Profile.find_phase snap "chase" <> None);
    Alcotest.(check bool) "assess phase recorded" true
      (Profile.find_phase snap "assess" <> None)

(* --- one count ------------------------------------------------------- *)

(* The chase counts its work once; [Chase.stats], the [mdqa_chase_*]
   registry counters and the profiler's per-rule rows are all written
   from that count, so they must agree exactly — across runs sharing a
   registry, on a guard trip in mid-round, and with prior statistics
   folded into a resumed run.  The program mints nulls (rule dept_of)
   and merges two of them away (the EGD), over three rounds of a
   transitive closure. *)
module Chase = Mdqa_datalog.Chase

let counts_program =
  (Mdqa_datalog.Parser.parse_string
     "emp(a). emp(b). emp(c). dept(a, sales). boss(b). boss(c).\n\
      e(n1, n2). e(n2, n3). e(n3, n4). e(n4, n5).\n\
      dept(X, D) :- emp(X).\n\
      dept(X, hq) :- boss(X).\n\
      D1 = D2 :- dept(X, D1), dept(X, D2).\n\
      t(X, Y) :- e(X, Y).\n\
      t(X, Z) :- t(X, Y), e(Y, Z).")
    .Mdqa_datalog.Parser.program

let no_prior =
  { Chase.rounds = 0; tgd_fires = 0; triggers_checked = 0; nulls_created = 0;
    egd_merges = 0 }

let registry_counts m =
  let snap = Metrics.snapshot m in
  let c = Metrics.counter_total snap in
  [ c "mdqa_chase_rounds_total"; c "mdqa_chase_tgd_fires_total";
    c "mdqa_chase_triggers_total"; c "mdqa_chase_nulls_total";
    c "mdqa_chase_egd_merges_total"; c "mdqa_chase_rule_fires_total" ]

let stats_counts (st : Chase.stats) =
  [ st.Chase.rounds; st.Chase.tgd_fires; st.Chase.triggers_checked;
    st.Chase.nulls_created; st.Chase.egd_merges; st.Chase.tgd_fires ]

(* One run under a fresh profiler; returns the run's stats, the
   registry's change across it, and the profiler's per-rule sums. *)
let counted_run ?guard ?start m =
  let before = registry_counts m in
  let p = Profile.create ~clock:(fun () -> 0.) () in
  Profile.install p;
  let r =
    Fun.protect ~finally:Profile.uninstall (fun () ->
        Chase.run ?guard ?start ~metrics:m counts_program
          (Mdqa_datalog.Program.instance_of_facts counts_program))
  in
  let delta = List.map2 ( - ) (registry_counts m) before in
  let rules = (Profile.snapshot p).Profile.rules in
  let sum f = sum_int (List.map (fun (_, r) -> f r) rules) in
  let fires = sum (fun r -> r.Profile.fires)
  and triggers = sum (fun r -> r.Profile.triggers) in
  (r, delta, (fires, triggers))

let check_counts name ~(prior : Chase.stats) (r, delta, (fires, triggers)) =
  let st = r.Chase.stats in
  let minus a b = List.map2 ( - ) a b in
  Alcotest.(check (list int)) (name ^ ": stats = prior + registry delta")
    (stats_counts st)
    (List.map2 ( + ) (stats_counts prior) delta);
  Alcotest.(check (pair int int)) (name ^ ": profile sums = run's own counts")
    (match minus (stats_counts st) (stats_counts prior) with
     | [ _; f; t; _; _; _ ] -> (f, t)
     | _ -> assert false)
    (fires, triggers)

let test_counts_shared_registry () =
  let m = Metrics.create () in
  let first = counted_run m in
  let second = counted_run m in
  let (r, _, _) = first in
  Alcotest.(check bool) "saturated" true (r.Chase.outcome = Chase.Saturated);
  Alcotest.(check int) "nulls minted" 2 r.Chase.stats.Chase.nulls_created;
  Alcotest.(check int) "nulls merged" 2 r.Chase.stats.Chase.egd_merges;
  check_counts "first run" ~prior:no_prior first;
  check_counts "second run" ~prior:no_prior second

let test_counts_guard_trip () =
  let m = Metrics.create () in
  let ((r, _, _) as run) =
    counted_run ~guard:(Mdqa_datalog.Guard.create ~max_steps:3 ()) m
  in
  Alcotest.(check bool) "tripped on steps" true
    (match r.Chase.outcome with
     | Chase.Out_of_budget { Mdqa_datalog.Guard.resource = Steps; _ } -> true
     | _ -> false);
  Alcotest.(check int) "the tripping trigger is counted" 4
    r.Chase.stats.Chase.triggers_checked;
  check_counts "guard trip" ~prior:no_prior run

let test_counts_resumed () =
  let m = Metrics.create () in
  let prior =
    { Chase.rounds = 7; tgd_fires = 11; triggers_checked = 13;
      nulls_created = 17; egd_merges = 19 }
  in
  let run =
    counted_run
      ~start:
        (Chase.Resume { frontier = []; null_base = 100; prior_stats = prior })
      m
  in
  check_counts "resumed" ~prior run

(* EGD enforcement and negative-constraint checks are profiler phases
   of their own, not chase self time, and each EGD pass is one
   [egd.merge] span carrying its merge count. *)
let test_egd_and_nc_phases () =
  let program =
    (Mdqa_datalog.Parser.parse_string
       "emp(a). emp(b). dept(a, sales). boss(b).\n\
        dept(X, D) :- emp(X).\n\
        dept(X, hq) :- boss(X).\n\
        D1 = D2 :- dept(X, D1), dept(X, D2).\n\
        ! :- dept(X, closed).")
      .Mdqa_datalog.Parser.program
  in
  let p = Profile.create () and tr = Trace.create () in
  Profile.install p;
  Trace.install tr;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Profile.uninstall ();
        Trace.uninstall ())
      (fun () ->
        Chase.run program (Mdqa_datalog.Program.instance_of_facts program))
  in
  Alcotest.(check bool) "saturated" true (r.Chase.outcome = Chase.Saturated);
  Alcotest.(check int) "one null merged" 1 r.Chase.stats.Chase.egd_merges;
  let snap = Profile.snapshot p in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " phase recorded") true
        (Profile.find_phase snap phase <> None))
    [ "chase"; "egd"; "nc" ];
  let passes =
    List.filter (fun e -> e.Trace.name = "egd.merge") (Trace.events tr)
  in
  Alcotest.(check (list (list (pair string string))))
    "one egd.merge span per merging pass" [ [ ("merges", "1") ] ]
    (List.map (fun e -> e.Trace.attrs) passes)

(* The .mdq front end's four passes are profiler phases and trace
   spans, nested in the caller's parse, so their times sum to at most
   the whole check; the dimension checks are one more, inside
   validate. *)
let test_md_parser_phases () =
  let p = Profile.create () and tr = Trace.create () in
  Profile.install p;
  Trace.install tr;
  let checked =
    Fun.protect
      ~finally:(fun () ->
        Profile.uninstall ();
        Trace.uninstall ())
      (fun () ->
        Trace.with_span "parse" (fun () ->
            Mdqa_context.Md_parser.check_file "../examples/hospital.mdq"))
  in
  Alcotest.(check bool) "parsed" true
    (checked.Mdqa_context.Md_parser.parsed <> None);
  let snap = Profile.snapshot p in
  let seconds phase =
    match Profile.find_phase snap phase with
    | Some s -> s.Profile.phase_seconds
    | None -> Alcotest.failf "no %s phase" phase
  in
  let names = List.map (fun e -> e.Trace.name) (Trace.events tr) in
  let passes =
    List.map (( ^ ) "md_parser.") [ "collect"; "validate"; "build"; "advisory" ]
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span") true (List.mem name names))
    passes;
  Alcotest.(check bool) "passes within the parse phase" true
    (List.fold_left (fun acc ph -> acc +. seconds ph) 0. passes
    <= seconds "parse");
  Alcotest.(check bool) "md_parser.dimensions span" true
    (List.mem "md_parser.dimensions" names);
  Alcotest.(check bool) "dimensions within validate" true
    (seconds "md_parser.dimensions" <= seconds "md_parser.validate")

(* One timing path: a scope is timed once and handed to every installed
   sink.  The hospital context pipeline (check, assess, clean answers,
   then the repaired assessment, whose answers are evaluated) under a
   tracer and a profiler on one fake clock: the profiler's phases are
   exactly the trace's span names, and each phase's calls and seconds
   are the count and summed duration of the events with its name. *)
let test_scopes_feed_both_sinks () =
  let module Context = Mdqa_context.Context in
  let module Md_parser = Mdqa_context.Md_parser in
  let tick = ref 0. in
  let clock () =
    tick := !tick +. 0.25;
    !tick
  in
  let p = Profile.create ~clock () and tr = Trace.create ~clock () in
  Profile.install p;
  Trace.install tr;
  Fun.protect
    ~finally:(fun () ->
      Profile.uninstall ();
      Trace.uninstall ())
    (fun () ->
      let checked = Md_parser.check_file "../examples/hospital.mdq" in
      match checked.Md_parser.parsed with
      | None -> Alcotest.fail "hospital.mdq does not check"
      | Some { Md_parser.context; source; queries; _ } -> (
        let answer a =
          List.iter (fun q -> ignore (Context.clean_answers a q)) queries
        in
        answer (Context.assess context ~source);
        match Mdqa_context.Repair.assess_repaired context ~source with
        | Ok (a, _) -> answer a
        | Error e -> Alcotest.fail e));
  let events = Trace.events tr in
  Alcotest.(check int) "no span dropped" 0 (Trace.dropped tr);
  let names =
    List.sort_uniq String.compare (List.map (fun e -> e.Trace.name) events)
  in
  let phases = (Profile.snapshot p).Profile.phases in
  Alcotest.(check (list string)) "phases are the span names" names
    (List.map fst phases);
  List.iter
    (fun layer ->
      Alcotest.(check bool) (layer ^ " is a layer") true (List.mem layer names))
    [ "md_parser.collect"; "assess"; "context.prepare"; "chase"; "chase.round";
      "rule.fire"; "nc"; "eval" ];
  List.iter
    (fun (name, (ph : Profile.phase_stat)) ->
      let evs = List.filter (fun e -> e.Trace.name = name) events in
      Alcotest.(check int) (name ^ " calls") (List.length evs) ph.Profile.calls;
      Alcotest.(check (float 1e-9)) (name ^ " seconds")
        (List.fold_left (fun acc e -> acc +. e.Trace.dur) 0. evs)
        ph.Profile.phase_seconds)
    phases

(* ---------------------------------------------------------------------- *)

let case name f = Alcotest.test_case name `Quick f

let props = List.map QCheck_alcotest.to_alcotest

let suites =
  [ ( "obs.metrics",
      props
        [ prop_merge_commutative; prop_merge_associative;
          prop_merge_preserves_count_sum; prop_bucketing;
          prop_counter_monotone ]
      @ [ case "add rejects negative" test_counter_rejects_negative;
          case "registration kind clash" test_register_kind_clash;
          case "prometheus exposition" test_prometheus_exposition ] );
    ( "obs.trace",
      props [ prop_spans_survive_exceptions ]
      @ [ case "export is valid trace JSON" test_export_is_valid_json;
          case "ring buffer drops oldest" test_ring_buffer_drops_oldest ] );
    ( "obs.logger",
      [ case "JSONL records and level filtering" test_logger_json_and_levels;
        case "text format" test_logger_text_format;
        case "level parsing" test_level_of_string ] );
    ( "obs.profile",
      props
        [ prop_profile_merge_commutative; prop_profile_merge_associative;
          prop_profile_merge_identity; prop_profile_merge_counts_sum;
          prop_profile_json_parses ]
      @ [ case "scope discipline" test_profile_scope_discipline;
          case "off is transparent" test_profile_off_is_transparent;
          case "hospital assessment attributes every used rule"
            test_profile_attributes_hospital_rules;
          case "visits count bucket misses"
            test_profile_visits_count_bucket_misses;
          case "to_json prints every seconds field as a float"
            test_profile_json_seconds_are_floats;
          case ".mdq front-end passes are phases and spans"
            test_md_parser_phases;
          case "every scope feeds the tracer and the profiler alike"
            test_scopes_feed_both_sinks ] );
    ( "obs.counts",
      [ case "two runs share one registry" test_counts_shared_registry;
        case "guard trip in mid-round" test_counts_guard_trip;
        case "resumed run folds prior stats" test_counts_resumed;
        case "EGD and NC checks are profiler phases" test_egd_and_nc_phases
      ] ) ]
