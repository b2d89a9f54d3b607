(* Unit and property tests for the mdqa_server building blocks: backoff
   (the ISSUE's qcheck properties), circuit breaker transitions under an
   injected clock, admission-queue shedding, the JSONL codec, the wire
   protocol, Guard.fork/absorb budget arithmetic, and the live inline
   server (crash isolation, deadlines, shedding, drain) forked over a
   Unix socket.  The chaos end of the loop — SIGKILL, store faults,
   soak, replication — is exercised by test/chaos_serve.sh. *)

open Mdqa_server
module Jsonl = Mdqa_obs.Jsonl
module Answer = Mdqa_datalog.Answer
module Guard = Mdqa_datalog.Guard

(* --- backoff: full-jitter properties --------------------------------- *)

let policy_arb =
  QCheck.make
    ~print:(fun (base, cap_mult, attempts, budget) ->
      Printf.sprintf "base=%g cap=%g attempts=%d budget=%g" base
        (base *. cap_mult) attempts budget)
    QCheck.Gen.(
      quad
        (float_range 0.001 1.0)
        (float_range 1.0 100.0)
        (int_range 0 10)
        (float_range 0.0 20.0))

let mk_policy (base, cap_mult, attempts, budget) =
  Backoff.policy ~base ~cap:(base *. cap_mult) ~max_attempts:attempts ~budget
    ()

let prop_delay_within_bounds =
  QCheck.Test.make ~name:"backoff: jittered delay stays within [0, cap]"
    ~count:500
    QCheck.(pair policy_arb (pair (int_range 0 80) int))
    (fun (pspec, (attempt, seed)) ->
      let p = mk_policy pspec in
      let st = Random.State.make [| seed |] in
      let d = Backoff.delay p ~rand:(Random.State.float st) ~attempt in
      d >= 0. && d <= p.Backoff.cap
      && d <= Backoff.ceiling p ~attempt)

let prop_ceiling_monotone =
  QCheck.Test.make
    ~name:"backoff: ceiling is monotone and capped past the crossover"
    ~count:500
    QCheck.(pair policy_arb (int_range 0 79))
    (fun (pspec, attempt) ->
      let p = mk_policy pspec in
      let here = Backoff.ceiling p ~attempt in
      let next = Backoff.ceiling p ~attempt:(attempt + 1) in
      here <= next && next <= p.Backoff.cap
      && Backoff.ceiling p ~attempt:80 = p.Backoff.cap)

let prop_budget_bounds_sleep =
  QCheck.Test.make
    ~name:"backoff: retry budget bounds total sleep and attempt count"
    ~count:500
    QCheck.(pair policy_arb int)
    (fun (pspec, seed) ->
      let p = mk_policy pspec in
      let st = Random.State.make [| seed |] in
      let bo = Backoff.start p in
      let total = ref 0. in
      let rec drain () =
        match Backoff.next bo ~rand:(Random.State.float st) with
        | Some d ->
          total := !total +. d;
          drain ()
        | None -> ()
      in
      drain ();
      !total <= p.Backoff.budget +. 1e-9
      && Backoff.attempts bo <= p.Backoff.max_attempts
      && Float.abs (Backoff.slept bo -. !total) < 1e-9)

(* --- breaker: every transition under an injected clock --------------- *)

let test_breaker_trip_and_recover () =
  let now = ref 0. in
  let b =
    Breaker.create ~threshold:3 ~cooldown:1.0 ~cooldown_cap:60.0
      ~clock:(fun () -> !now)
      ()
  in
  Alcotest.(check bool) "starts closed" true (Breaker.state b = Breaker.Closed);
  Breaker.record_failure b;
  Breaker.record_failure b;
  Alcotest.(check bool) "below threshold stays closed" true (Breaker.allow b);
  Breaker.record_failure b;
  Alcotest.(check bool) "third failure trips open" false (Breaker.allow b);
  Alcotest.(check int) "one trip counted" 1 (Breaker.trips b);
  (match Breaker.retry_at b with
   | Some at -> Alcotest.(check (float 1e-9)) "half-opens at cooldown" 1.0 at
   | None -> Alcotest.fail "open breaker must expose retry_at");
  now := 1.5;
  Alcotest.(check bool) "cooldown elapsed: one probe allowed" true
    (Breaker.allow b);
  Alcotest.(check bool) "second probe refused while first in flight" false
    (Breaker.allow b);
  Breaker.record_failure b;
  Alcotest.(check string) "failed probe re-opens" "open" (Breaker.state_name b);
  (match Breaker.retry_at b with
   | Some at ->
     Alcotest.(check (float 1e-9)) "cooldown doubled" (1.5 +. 2.0) at
   | None -> Alcotest.fail "re-opened breaker must expose retry_at");
  now := 4.0;
  Alcotest.(check bool) "second probe window" true (Breaker.allow b);
  Breaker.record_success b;
  Alcotest.(check bool) "successful probe closes" true
    (Breaker.state b = Breaker.Closed);
  Alcotest.(check int) "failure count reset" 0 (Breaker.consecutive_failures b);
  (* cooldown reset too: next trip opens for the base cooldown again *)
  Breaker.record_failure b;
  Breaker.record_failure b;
  Breaker.record_failure b;
  match Breaker.retry_at b with
  | Some at -> Alcotest.(check (float 1e-9)) "cooldown reset" (4.0 +. 1.0) at
  | None -> Alcotest.fail "tripped breaker must expose retry_at"

let test_breaker_cooldown_cap () =
  let now = ref 0. in
  let b =
    Breaker.create ~threshold:1 ~cooldown:1.0 ~cooldown_cap:4.0
      ~clock:(fun () -> !now)
      ()
  in
  (* fail every probe: cooldown 1 -> 2 -> 4 -> capped at 4 *)
  Breaker.record_failure b;
  let fail_probe expected =
    now := Option.get (Breaker.retry_at b) +. 0.001;
    Alcotest.(check bool) "probe allowed" true (Breaker.allow b);
    Breaker.record_failure b;
    match Breaker.retry_at b with
    | Some at ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "cooldown %.0f" expected)
        expected (at -. !now +. 0.001 |> Float.round)
    | None -> Alcotest.fail "must be open"
  in
  fail_probe 2.;
  fail_probe 4.;
  fail_probe 4.;
  fail_probe 4.

(* [retry_in] reads the breaker's own (here injected) clock, not the
   wall clock: it is exactly the cooldown still to run. *)
let test_breaker_retry_in () =
  let now = ref 100. in
  let b =
    Breaker.create ~threshold:1 ~cooldown:2.0 ~clock:(fun () -> !now) ()
  in
  Alcotest.(check (option (float 1e-9))) "closed: none" None
    (Breaker.retry_in b);
  Breaker.record_failure b;
  Alcotest.(check (option (float 1e-9))) "full cooldown" (Some 2.0)
    (Breaker.retry_in b);
  now := 101.25;
  Alcotest.(check (option (float 1e-9))) "remaining cooldown" (Some 0.75)
    (Breaker.retry_in b);
  now := 105.;
  Alcotest.(check (option (float 1e-9))) "elapsed: zero, never negative"
    (Some 0.) (Breaker.retry_in b)

(* --- admission queue -------------------------------------------------- *)

let test_admission_fifo_and_shed () =
  let q = Admission.create ~capacity:3 in
  Alcotest.(check bool) "accepts 1" true (Admission.offer q 1);
  Alcotest.(check bool) "accepts 2" true (Admission.offer q 2);
  Alcotest.(check bool) "accepts 3" true (Admission.offer q 3);
  Alcotest.(check bool) "sheds 4" false (Admission.offer q 4);
  Alcotest.(check bool) "sheds 5" false (Admission.offer q 5);
  Alcotest.(check int) "shed counted" 2 (Admission.shed q);
  Alcotest.(check int) "accepted counted" 3 (Admission.accepted q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Admission.take q);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Admission.take q);
  Alcotest.(check bool) "freed capacity readmits" true (Admission.offer q 6);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Admission.take q);
  Alcotest.(check (option int)) "fifo 6" (Some 6) (Admission.take q);
  Alcotest.(check (option int)) "empty" None (Admission.take q);
  Alcotest.(check bool) "is_empty" true (Admission.is_empty q)

(* --- jsonl codec ------------------------------------------------------ *)

(* Strings span all of ASCII, so control bytes, quotes and backslashes
   go through the escaper; [Float]s span every finite magnitude,
   integral ones included. *)
let jsonl_arb =
  let open QCheck.Gen in
  let ascii = string_size ~gen:(map Char.chr (int_range 0 0x7f)) in
  let finite = map (fun f -> if Float.is_finite f then f else 0.) float in
  let scalar =
    oneof
      [ return Jsonl.Null;
        map (fun b -> Jsonl.Bool b) bool;
        map (fun n -> Jsonl.Num (float_of_int n)) (int_range (-1000) 1000);
        map (fun f -> Jsonl.Num f) (float_range (-1e6) 1e6);
        map (fun n -> Jsonl.Float (float_of_int n)) (int_range (-1000) 1000);
        map (fun f -> Jsonl.Float f) finite;
        map (fun s -> Jsonl.Str s) (ascii (int_range 0 12))
      ]
  in
  let value =
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 0 then scalar
            else
              frequency
                [ (3, scalar);
                  (1, map (fun l -> Jsonl.List l)
                        (list_size (int_range 0 4) (self (n / 2))));
                  (1,
                   map (fun kvs -> Jsonl.Obj kvs)
                     (list_size (int_range 0 4)
                        (pair (ascii (int_range 1 6)) (self (n / 2))))) ])
          (min n 8))
  in
  QCheck.make ~print:Jsonl.to_string value

(* A [Float f] reads back as [Num f], and its literal always carries a
   fraction or an exponent. *)
let prop_jsonl_roundtrip =
  QCheck.Test.make ~name:"jsonl: parse (to_string v) = v" ~count:500 jsonl_arb
    (fun v ->
      let rec read = function
        | Jsonl.Float f -> Jsonl.Num f
        | Jsonl.List l -> Jsonl.List (List.map read l)
        | Jsonl.Obj kvs -> Jsonl.Obj (List.map (fun (k, x) -> (k, read x)) kvs)
        | x -> x
      in
      let rec floats_marked = function
        | Jsonl.Float _ as x ->
          String.exists (fun c -> c = '.' || c = 'e') (Jsonl.to_string x)
        | Jsonl.List l -> List.for_all floats_marked l
        | Jsonl.Obj kvs -> List.for_all (fun (_, x) -> floats_marked x) kvs
        | _ -> true
      in
      Jsonl.parse (Jsonl.to_string v) = Ok (read v) && floats_marked v)

let prop_jsonl_total =
  QCheck.Test.make ~name:"jsonl: parse never raises on arbitrary bytes"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255))
                     (int_range 0 64)))
    (fun s ->
      match Jsonl.parse s with Ok _ | Error _ -> true)

(* The printer's strings and numbers against a per-character escape
   and Printf's conversions, kept here as the reference: its fast paths
   (plain strings copied whole, the C float formatter called directly)
   must not move a byte. *)
let prop_jsonl_printing_reference =
  let reference_str s =
    let b = Buffer.create 16 in
    Buffer.add_char b '"';
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | ch when Char.code ch < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
        | ch -> Buffer.add_char b ch)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  and reference_num f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f
  in
  QCheck.Test.make ~name:"jsonl: strings and numbers print as the reference"
    ~count:1000
    QCheck.(
      pair
        (make
           ~print:Print.string
           Gen.(
             string_size
               ~gen:(frequency [ (6, printable); (1, map Char.chr (0 -- 40)) ])
               (0 -- 24)))
        (make ~print:Print.float
           Gen.(
             frequency
               [ (3, float); (2, map (fun i -> float_of_int i /. 10.) (-1000 -- 1000));
                 (1, map float_of_int int) ])))
    (fun (s, f) ->
      Jsonl.to_string (Jsonl.Str s) = reference_str s
      && (not (Float.is_finite f)
         || Jsonl.to_string (Jsonl.Num f) = reference_num f))

let test_jsonl_unicode () =
  (match Jsonl.parse {|"aé😀b"|} with
   | Ok (Jsonl.Str s) ->
     Alcotest.(check string) "utf-8 decoding" "a\xc3\xa9\xf0\x9f\x98\x80b" s
   | _ -> Alcotest.fail "unicode escapes must parse");
  (match Jsonl.parse {|"\ud83d"|} with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unpaired surrogate must be rejected");
  match Jsonl.parse {|{"a": 1} trailing|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes must be rejected"

let test_jsonl_depth_limit () =
  let deep = String.make 600 '[' ^ String.make 600 ']' in
  match Jsonl.parse deep with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "600-deep nesting must be rejected"

(* --- protocol --------------------------------------------------------- *)

let test_parse_request_ok () =
  (match
     Protocol.parse_request
       {|{"kind":"query","query":"q(X) :- p(X)","id":7,"engine":"proof","timeout":0.5,"max_steps":100}|}
   with
   | Ok (Protocol.Query { query; engine; timeout; max_steps; id }) ->
     Alcotest.(check string) "query" "q(X) :- p(X)" query;
     Alcotest.(check bool) "engine" true (engine = Answer.Proof);
     Alcotest.(check (option (float 1e-9))) "timeout" (Some 0.5) timeout;
     Alcotest.(check (option int)) "max_steps" (Some 100) max_steps;
     Alcotest.(check bool) "id echoed" true (id = Some (Jsonl.Num 7.))
   | _ -> Alcotest.fail "well-formed query must parse");
  match Protocol.parse_request {|{"kind":"health"}|} with
  | Ok (Protocol.Health { id = None }) -> ()
  | _ -> Alcotest.fail "health must parse"

let test_parse_request_bad () =
  let is_e024 input =
    match Protocol.parse_request input with
    | Error d -> d.Mdqa_datalog.Diag.code = "E024"
    | Ok _ -> false
  in
  List.iter
    (fun input ->
      Alcotest.(check bool)
        (Printf.sprintf "E024 for %s" input)
        true (is_e024 input))
    [ "not json";
      "[1,2,3]";
      {|{"no_kind": true}|};
      {|{"kind": "launch_missiles"}|};
      {|{"kind": "query"}|};
      {|{"kind": "query", "query": 42}|};
      {|{"kind": "query", "query": "q(X) :- p(X)", "engine": "warp"}|};
      {|{"kind": "query", "query": "q(X) :- p(X)", "timeout": -1}|};
      {|{"kind": "query", "query": "q(X) :- p(X)", "max_steps": 0}|} ]

let test_reply_roundtrip () =
  let t =
    Mdqa_relational.Tuple.of_list
      [ Mdqa_relational.Value.sym "a"; Mdqa_relational.Value.int 3;
        Mdqa_relational.Value.null 2 ]
  in
  let line =
    Protocol.complete_reply ~id:(Jsonl.Num 9.) ~answers:(Some [ t ]) ()
  in
  Alcotest.(check bool) "newline-terminated" true
    (String.length line > 0 && line.[String.length line - 1] = '\n');
  (match Protocol.parse_reply (String.trim line) with
   | Ok r ->
     Alcotest.(check string) "status" "complete" r.Protocol.status;
     Alcotest.(check bool) "id" true (r.Protocol.id = Some (Jsonl.Num 9.));
     Alcotest.(check (option (list (list string))))
       "answers rendered" (Some [ [ "a"; "3"; "_:2" ] ])
       r.Protocol.answers
   | Error e -> Alcotest.fail e);
  let degraded =
    Protocol.degraded_reply ~code:"W047" ~reason:"overload" ~answers:None
      ~message:"shed" ()
  in
  match Protocol.parse_reply (String.trim degraded) with
  | Ok r ->
    Alcotest.(check string) "status" "degraded" r.Protocol.status;
    Alcotest.(check (option string)) "reason" (Some "overload")
      r.Protocol.reason;
    Alcotest.(check (option string)) "code" (Some "W047") r.Protocol.code
  | Error e -> Alcotest.fail e

(* The reply bytes of a fixed answer list, pinned: a symbol needing
   quote, backslash and control escapes, a plain symbol, an int, two
   reals (one integral) and a labelled null. *)
let test_reply_bytes () =
  let module V = Mdqa_relational.Value in
  let t =
    Mdqa_relational.Tuple.of_list
      [ V.sym "say \"hi\"\\ \n\t\001\031end"; V.sym "plain"; V.int 42;
        V.real 39.9; V.real 40.0; V.null 7 ]
  in
  Alcotest.(check string) "complete reply"
    ({|{"id":3,"status":"complete","answers":[["say \"hi\"\\ \n\t\u0001\u001fend","plain",42,39.899999999999999,40,{"null":7}],[]]}|}
    ^ "\n")
    (Protocol.complete_reply ~id:(Jsonl.Num 3.)
       ~answers:(Some [ t; Mdqa_relational.Tuple.of_list [] ]) ())

(* --- Guard.fork / absorb ---------------------------------------------- *)

let consume_steps g n =
  for _ = 1 to n do
    Guard.count_step g
  done

let test_fork_caps_child_by_remaining () =
  let parent = Guard.create ~max_steps:10 () in
  consume_steps parent 4;
  let child = Guard.fork parent in
  consume_steps child 6;
  (match Guard.count_step child with
   | () -> Alcotest.fail "child must trip at the parent's remaining budget"
   | exception Guard.Exhausted e ->
     Alcotest.(check bool) "steps resource" true
       (e.Guard.resource = Guard.Steps));
  (* the child's trip never propagates to the parent *)
  Guard.count_step parent

let test_fork_requested_below_remaining () =
  let parent = Guard.create ~max_steps:100 () in
  let child = Guard.fork ~max_steps:3 parent in
  consume_steps child 3;
  match Guard.count_step child with
  | () -> Alcotest.fail "child must honour its own smaller budget"
  | exception Guard.Exhausted _ -> ()

let test_fork_requested_above_remaining () =
  let parent = Guard.create ~max_steps:10 () in
  consume_steps parent 8;
  let child = Guard.fork ~max_steps:1000 parent in
  consume_steps child 2;
  match Guard.count_step child with
  | () -> Alcotest.fail "child cannot exceed the parent's remaining budget"
  | exception Guard.Exhausted _ -> ()

(* A request's timeout is reported as given, though its deadline is
   the sum of a clock reading and the timeout, which rounds. *)
let test_fork_reports_timeout_as_given () =
  let now = ref 1.76e9 in
  let clock () =
    now := !now +. 1e-3;
    !now
  in
  let child = Guard.fork ~timeout:2e-05 (Guard.create ~clock ()) in
  match Guard.check child with
  | () -> Alcotest.fail "expected a deadline trip"
  | exception Guard.Exhausted e ->
    Alcotest.(check string) "limit"
      "deadline exceeded (0.001s elapsed, limit 2e-05s)"
      (Format.asprintf "%a" Guard.pp_exhaustion e)

let test_absorb_folds_consumption_back () =
  let parent = Guard.create ~max_steps:10 () in
  consume_steps parent 4;
  let child = Guard.fork parent in
  consume_steps child 6;
  Guard.absorb parent child;
  Alcotest.(check int) "parent sees child's consumption" 10
    (Guard.consumption parent).Guard.steps;
  match Guard.count_step parent with
  | () -> Alcotest.fail "absorbed consumption must count against the parent"
  | exception Guard.Exhausted _ -> ()

let test_absorb_never_raises () =
  let parent = Guard.create ~max_steps:5 () in
  let child = Guard.fork parent in
  consume_steps parent 5;
  (* child consumption pushes the parent past its limit; absorb itself
     must stay silent — the *next* count trips *)
  consume_steps child 5;
  Guard.absorb parent child;
  Alcotest.(check int) "over-limit after absorb" 10
    (Guard.consumption parent).Guard.steps

(* --- failpoints -------------------------------------------------------- *)

module Failpoint = Mdqa_obs.Failpoint

let test_failpoint_parse () =
  (match
     Failpoint.parse_spec
       "a=crash, b=exit:3@2 ,c=hang:1.5,d=delay:250@4+,e=err,f=off"
   with
   | Error e -> Alcotest.fail e
   | Ok entries ->
     let find n =
       match List.assoc_opt n entries with
       | Some e -> e
       | None -> Alcotest.fail (Printf.sprintf "entry %S missing" n)
     in
     let check_entry name expected =
       Alcotest.(check bool) name true (find name = expected)
     in
     check_entry "a" { Failpoint.action = Failpoint.Crash; trigger = Failpoint.Always };
     check_entry "b" { Failpoint.action = Failpoint.Exit 3; trigger = Failpoint.At 2 };
     check_entry "c" { Failpoint.action = Failpoint.Hang 1.5; trigger = Failpoint.Always };
     (* delay takes milliseconds on the wire, seconds internally *)
     check_entry "d" { Failpoint.action = Failpoint.Delay 0.25; trigger = Failpoint.From 4 };
     check_entry "e" { Failpoint.action = Failpoint.Err; trigger = Failpoint.Always };
     check_entry "f" { Failpoint.action = Failpoint.Off; trigger = Failpoint.Always });
  Alcotest.(check bool) "empty spec is fine" true (Failpoint.parse_spec "" = Ok []);
  List.iter
    (fun bad ->
      match Failpoint.parse_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must be rejected" bad))
    [ "nope"; "x=warp"; "x=exit:abc"; "x=hang:zz"; "x=delay:"; "x=crash@0";
      "x=crash@-1"; "x=crash@x+"; "=crash" ]

(* [true] when the hit raised Injected for that site. *)
let fp_fires name =
  match Failpoint.hit name with
  | () -> false
  | exception Failpoint.Injected n ->
    Alcotest.(check string) "exception names the site" name n;
    true

let test_failpoint_triggers () =
  Failpoint.disarm_all ();
  Failpoint.arm "t.at" { Failpoint.action = Failpoint.Err; trigger = Failpoint.At 2 };
  Alcotest.(check bool) "@2: hit 1 quiet" false (fp_fires "t.at");
  Alcotest.(check bool) "@2: hit 2 fires" true (fp_fires "t.at");
  Alcotest.(check bool) "@2: hit 3 quiet again" false (fp_fires "t.at");
  Failpoint.arm "t.from" { Failpoint.action = Failpoint.Err; trigger = Failpoint.From 2 };
  Alcotest.(check bool) "@2+: hit 1 quiet" false (fp_fires "t.from");
  Alcotest.(check bool) "@2+: hit 2 fires" true (fp_fires "t.from");
  Alcotest.(check bool) "@2+: hit 3 fires" true (fp_fires "t.from");
  Failpoint.arm "t.off" { Failpoint.action = Failpoint.Off; trigger = Failpoint.Always };
  Failpoint.hit "t.off";
  Failpoint.hit "t.off";
  Failpoint.hit "t.off";
  Alcotest.(check bool) "hits counted per site, sorted" true
    (Failpoint.hits () = [ ("t.at", 3); ("t.from", 3); ("t.off", 3) ]);
  (* unarmed sites cost nothing and count nothing *)
  Failpoint.hit "t.unarmed";
  Alcotest.(check int) "unarmed hit not counted" 3
    (List.length (Failpoint.hits ()));
  Failpoint.disarm_all ();
  Alcotest.(check bool) "disarm_all forgets counts" true (Failpoint.hits () = []);
  Failpoint.hit "t.at";
  Alcotest.(check bool) "disarmed site is inert" true (Failpoint.hits () = [])

let test_failpoint_arm () =
  Failpoint.disarm_all ();
  (match Failpoint.arm_spec "t.spec=err@1" with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "arm_spec: first hit fires" true (fp_fires "t.spec");
  Alcotest.(check bool) "arm_spec: second hit quiet" false (fp_fires "t.spec");
  (* re-arming keeps the hit count *)
  Failpoint.arm "t.spec" { Failpoint.action = Failpoint.Off; trigger = Failpoint.Always };
  Alcotest.(check int) "re-arm preserves counts" 2
    (List.assoc "t.spec" (Failpoint.hits ()));
  Unix.putenv "MDQA_FAILPOINTS" "t.env=off@2+";
  (match Failpoint.arm_env () with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Failpoint.hit "t.env";
  Alcotest.(check int) "env-armed site counts" 1
    (List.assoc "t.env" (Failpoint.hits ()));
  Unix.putenv "MDQA_FAILPOINTS" "bogus";
  (match Failpoint.arm_env () with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "a bogus MDQA_FAILPOINTS must be rejected");
  Unix.putenv "MDQA_FAILPOINTS" "";
  Alcotest.(check bool) "empty env is Ok" true (Failpoint.arm_env () = Ok ());
  Failpoint.disarm_all ()

(* The process-ending actions against real forked processes: [crash]
   dies as SIGABRT, [exit:N] exits with N. *)
let test_failpoint_process_actions () =
  let status_after f =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      (try f () with _ -> ());
      Unix._exit 99
    | pid -> snd (Unix.waitpid [] pid)
  in
  let check name action expected =
    Failpoint.disarm_all ();
    Failpoint.arm "t.die" { Failpoint.action; trigger = Failpoint.Always };
    Alcotest.(check bool) name true
      (status_after (fun () -> Failpoint.hit "t.die") = expected)
  in
  check "crash action dies as SIGABRT" Failpoint.Crash
    (Unix.WSIGNALED Sys.sigabrt);
  check "exit:7 action exits 7" (Failpoint.Exit 7) (Unix.WEXITED 7);
  check "exit:0 action exits 0" (Failpoint.Exit 0) (Unix.WEXITED 0);
  Failpoint.disarm_all ()

(* --- client: retry classification ------------------------------------- *)

let parsed_reply line =
  match Protocol.parse_reply (String.trim line) with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_client_retry_classification () =
  let overload =
    parsed_reply
      (Protocol.degraded_reply ~code:"W047" ~reason:"overload" ~answers:None
         ~message:"shed" ())
  in
  Alcotest.(check bool) "overload shed always retried" true
    (Client.should_retry_reply overload <> None);
  let complete = parsed_reply (Protocol.complete_reply ~answers:None ()) in
  Alcotest.(check bool) "complete never retried" true
    (Client.should_retry_reply complete = None)

(* --- service: the periodic check over a persisted fixpoint ----------- *)

let every = 4

(* A service cold-started from examples/hospital.dl into a store in a
   fresh directory, with an injected breaker clock; [f] gets the
   service, the snapshot path, the clock and a checkpoint counter. *)
let with_service f =
  let dir = Filename.temp_file "mdqa_service" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm_rf p =
    if Sys.is_directory p then (
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p)
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Filename.concat dir "store.snap" in
  let now = ref 0. in
  let metrics = Mdqa_obs.Metrics.create () in
  let svc =
    match
      Service.load ~store ~metrics ~checkpoint_every:every
        ~breaker:(Breaker.create ~clock:(fun () -> !now) ())
        ~program_file:"../examples/hospital.dl" ()
    with
    | Ok svc -> svc
    | Error _ -> Alcotest.fail "Service.load failed"
  in
  Fun.protect ~finally:(fun () -> Service.close svc) @@ fun () ->
  let checkpoints () =
    Mdqa_obs.Metrics.counter_total
      (Mdqa_obs.Metrics.snapshot metrics)
      "mdqa_store_checkpoint_total"
  in
  f svc store now checkpoints

let ticks svc n =
  for _ = 1 to n * every do
    Service.request_served svc
  done

let closed svc = Breaker.state (Service.breaker svc) = Breaker.Closed

(* A served query with a constraint or EGD after it is refused, not
   answered without its tail. *)
let test_service_rejects_query_tail () =
  with_service @@ fun svc _ _ _ ->
  List.iter
    (fun q ->
      match Service.query svc ~engine:Answer.Chase q with
      | Service.Bad_query d ->
        Alcotest.(check string) q "E002" d.Mdqa_datalog.Diag.code
      | _ -> Alcotest.failf "answered %S" q)
    [ "q(W) :- patient_ward(W, D, P). ! :- patient_ward(W, D, P)";
      "q(W) :- patient_ward(W, D, P). X = Y :- patient_ward(W, X, Y)" ]

(* A served query refused by the query parser keeps the parser's own
   code: an arity clash is E011 and an unsafe head E003. *)
let test_service_keeps_parser_code () =
  with_service @@ fun svc _ _ _ ->
  List.iter
    (fun (q, code) ->
      match Service.query svc ~engine:Answer.Chase q with
      | Service.Bad_query d ->
        Alcotest.(check string) q code d.Mdqa_datalog.Diag.code
      | _ -> Alcotest.failf "answered %S" q)
    [ ("q(X) :- zz(X), zz(X, Y).", "E011");
      ("q(W, Z) :- patient_ward(W, D, P).", "E003") ]

(* A served query without a "timeout" of its own is bounded by the
   server's default deadline, the same 10 s as the read timeout. *)
let test_default_request_deadline () =
  let cfg = Server.default_config (Server.Unix_path "unused.sock") in
  Alcotest.(check (float 0.)) "request_timeout" 10. cfg.Server.request_timeout;
  Alcotest.(check (float 0.)) "same as read_timeout" cfg.Server.read_timeout
    cfg.Server.request_timeout

(* A served rewrite request on a cyclic program is refused at once
   (E033) instead of unfolding without end, and the server goes on to
   answer the next request.  The request's 5 s timeout only bounds the
   test where the refusal is missing: there it degrades, here it never
   runs. *)
let test_service_refuses_cyclic_rewrite () =
  let file = Filename.temp_file "mdqa_graph" ".dl" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Out_channel.with_open_bin file (fun oc ->
      for i = 1 to 8 do
        for j = 1 to 8 do
          if i <> j then Printf.fprintf oc "edge(n%d, n%d).\n" i j
        done
      done;
      output_string oc
        "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).\n");
  let svc =
    match Service.load ~program_file:file () with
    | Ok svc -> svc
    | Error _ -> Alcotest.fail "Service.load failed"
  in
  Fun.protect ~finally:(fun () -> Service.close svc) @@ fun () ->
  let q = "q(Y) :- path(n1, Y)" in
  let t0 = Unix.gettimeofday () in
  (match Service.query svc ~timeout:5. ~engine:Answer.Rewrite q with
   | Service.Bad_query d ->
     Alcotest.(check string) "refused" "E033" d.Mdqa_datalog.Diag.code
   | _ -> Alcotest.fail "cyclic rewrite was not refused");
  Alcotest.(check bool) "at once" true (Unix.gettimeofday () -. t0 < 1.);
  match Service.query svc ~engine:Answer.Chase q with
  | Service.Answers l ->
    Alcotest.(check int) "chase: 8 answers" 8 (List.length l)
  | _ -> Alcotest.fail "chase request after the refusal not answered"

(* Served and in-process answers follow one path: for every engine,
   [Service.query] and [Answer.answer] give the same kind of outcome —
   complete with the same answers, refused with the same code, or
   inconsistent with the same failure — on a consistent program, one
   out of the proof and rewrite engines' scope, and the two
   inconsistent ones. *)
let test_service_matches_answer () =
  let render_answer = function
    | Answer.Ok l -> Printf.sprintf "complete: %d answers" (List.length l)
    | Answer.Degraded _ -> "degraded"
    | Answer.Refused d -> "refused: " ^ d.Mdqa_datalog.Diag.code
    | Answer.Inconsistent f ->
      Format.asprintf "inconsistent: %a" Mdqa_datalog.Chase.pp_outcome
        (Mdqa_datalog.Chase.Failed f)
  in
  let render_reply = function
    | Service.Answers l ->
      Printf.sprintf "complete: %d answers" (List.length l)
    | Service.Partial _ -> "degraded"
    | Service.Bad_query d -> "refused: " ^ d.Mdqa_datalog.Diag.code
    | Service.Inconsistent msg -> "inconsistent: " ^ msg
  in
  List.iter
    (fun (file, q) ->
      let { Mdqa_datalog.Parser.program; _ } =
        Mdqa_datalog.Parser.parse_file file
      in
      let svc =
        match Service.load ~program_file:file () with
        | Ok svc -> svc
        | Error _ -> Alcotest.failf "Service.load %s failed" file
      in
      Fun.protect ~finally:(fun () -> Service.close svc) @@ fun () ->
      List.iter
        (fun (name, engine) ->
          Alcotest.(check string)
            (Printf.sprintf "%s -e %s" file name)
            (render_answer
               (Answer.answer engine program
                  (Mdqa_datalog.Program.instance_of_facts program)
                  (Mdqa_datalog.Parser.parse_query q)))
            (render_reply (Service.query svc ~engine q)))
        Answer.engines)
    [ ("../examples/hospital.dl", "q(U, D, P) :- patient_unit(U, D, P)");
      ("corpus/egd_window.dl", "q(I, U) :- institution_unit(I, U)");
      ("corpus/inconsistent_nc.dl", "q(X) :- q(X)");
      ("corpus/inconsistent_egd.dl", "q(X, Y) :- s(X, Y)") ]

(* A store-less service over examples/hospital.dl whose guard reads a
   fake clock that advances one second per reading and checks it on
   every tick: a request's [timeout] of [n + 0.5] trips on its
   [n+1]-th check. *)
let ticking_service ?max_steps () =
  let now = ref 0. in
  let clock () =
    now := !now +. 1.;
    !now
  in
  let guard = Guard.create ?max_steps ~clock ~check_every:1 () in
  match Service.load ~guard ~program_file:"../examples/hospital.dl" () with
  | Ok svc -> (svc, guard)
  | Error _ -> Alcotest.fail "Service.load failed"

let test_service_degraded_keeps_partial () =
  let svc, _ = ticking_service () in
  Fun.protect ~finally:(fun () -> Service.close svc) @@ fun () ->
  let q = "q(U, D, P) :- patient_unit(U, D, P)" in
  (match Service.query svc ~engine:Answer.Chase q with
   | Service.Answers all ->
     Alcotest.(check int) "six answers untimed" 6 (List.length all)
   | _ -> Alcotest.fail "expected complete answers without a timeout");
  match Service.query svc ~timeout:4.5 ~engine:Answer.Chase q with
  | Service.Partial (answers, e) ->
    Alcotest.(check string) "deadline" "deadline"
      (Guard.resource_name e.Guard.resource);
    Alcotest.(check bool)
      (Printf.sprintf "some but not all answers (%d)" (List.length answers))
      true
      (answers <> [] && List.length answers < 6)
  | _ -> Alcotest.fail "expected a degraded reply"

let test_service_proof_timeout () =
  let svc, _ = ticking_service () in
  Fun.protect ~finally:(fun () -> Service.close svc) @@ fun () ->
  match
    Service.query svc ~timeout:4.5 ~engine:Answer.Proof
      "q(U, D, P) :- patient_unit(U, D, P)"
  with
  | Service.Partial (_, e) ->
    Alcotest.(check string) "deadline" "deadline"
      (Guard.resource_name e.Guard.resource)
  | _ -> Alcotest.fail "expected the proof search to stop at the deadline"

(* A request's proof steps are charged to its own fork of the server
   guard, never back to the server: requests whose steps add up to more
   than the warm chase left of the server's [max_steps] still
   complete. *)
let test_service_proof_steps_not_charged () =
  let q = "q(U, D, P) :- patient_unit(U, D, P)" in
  let warm_steps =
    let svc, guard = ticking_service () in
    Service.close svc;
    (Guard.consumption guard).Guard.steps
  in
  let per_request =
    let { Mdqa_datalog.Parser.program; _ } =
      Mdqa_datalog.Parser.parse_string
        (In_channel.with_open_bin "../examples/hospital.dl"
           In_channel.input_all)
    in
    let guard = Guard.unlimited () in
    ignore
      (Answer.answer ~guard Answer.Proof program
         (Mdqa_datalog.Program.instance_of_facts program)
         (Mdqa_datalog.Parser.parse_query q));
    (Guard.consumption guard).Guard.steps
  in
  (* the warm chase leaves the steps of one request *)
  let svc, _ = ticking_service ~max_steps:(warm_steps + per_request) () in
  Fun.protect ~finally:(fun () -> Service.close svc) @@ fun () ->
  Alcotest.(check bool) "warm chase saturated" true
    (Service.warm_saturated svc);
  let requests = 20 in
  for i = 1 to requests do
    match Service.query svc ~engine:Answer.Proof q with
    | Service.Answers l ->
      Alcotest.(check int) (Printf.sprintf "request %d complete" i) 6
        (List.length l)
    | _ -> Alcotest.failf "request %d degraded" i
  done

let test_service_quiet_when_persisted () =
  with_service @@ fun svc _ _ checkpoints ->
  let before = checkpoints () in
  ticks svc 10;
  Alcotest.(check int) "ten cadence ticks write nothing" before
    (checkpoints ());
  Alcotest.(check int) "every request counted" (10 * every)
    (Service.requests svc)

let test_service_rewrites_lost_image () =
  with_service @@ fun svc store _ checkpoints ->
  let before = checkpoints () in
  Sys.remove store;
  ticks svc 1;
  Alcotest.(check bool) "unlinked image rewritten" true
    (Sys.file_exists store);
  Alcotest.(check int) "one write" (before + 1) (checkpoints ());
  (* a same-size, same-mtime copy renamed into place: only the inode
     tells it apart *)
  let st = Unix.stat store in
  let copy = store ^ ".copy" in
  let ic = open_in_bin store and oc = open_out_bin copy in
  output_string oc (really_input_string ic (in_channel_length ic));
  close_in ic;
  close_out oc;
  Unix.utimes copy st.Unix.st_atime st.Unix.st_mtime;
  Unix.rename copy store;
  ticks svc 1;
  Alcotest.(check int) "replaced image rewritten" (before + 2)
    (checkpoints ());
  ticks svc 3;
  Alcotest.(check int) "then quiet again" (before + 2) (checkpoints ());
  Alcotest.(check bool) "breaker stays closed" true (closed svc)

(* An out-of-band trip (what the scrubber does) leaves the file
   untouched; the check must still let the half-open probe write, or
   the breaker would never close. *)
let test_service_trip_heals () =
  with_service @@ fun svc _ now checkpoints ->
  let before = checkpoints () in
  Breaker.trip (Service.breaker svc);
  ticks svc 1;
  Alcotest.(check int) "open: no write during the cooldown" before
    (checkpoints ());
  now := !now +. 1.5;
  ticks svc 1;
  Alcotest.(check int) "probe writes" (before + 1) (checkpoints ());
  Alcotest.(check bool) "probe closes the breaker" true (closed svc);
  ticks svc 2;
  Alcotest.(check int) "then quiet again" (before + 1) (checkpoints ())

(* --- suites ----------------------------------------------------------- *)

let case name f = Alcotest.test_case name `Quick f

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_delay_within_bounds; prop_ceiling_monotone;
      prop_budget_bounds_sleep; prop_jsonl_roundtrip; prop_jsonl_total;
      prop_jsonl_printing_reference ]

(* --- served telemetry ---------------------------------------------------- *)

(* Every literal after [key] in [text]: the bytes up to the next [,] or
   [}]. *)
let literals_after key text =
  let key = "\"" ^ key ^ "\":" in
  let n = String.length text and k = String.length key in
  let rec scan i acc =
    if i + k > n then List.rev acc
    else if String.sub text i k <> key then scan (i + 1) acc
    else begin
      let j = ref (i + k) in
      while !j < n && not (String.contains ",}" text.[!j]) do incr j done;
      scan !j (String.sub text (i + k) (!j - i - k) :: acc)
    end
  in
  scan 0 []

(* A live server (forked, inline, with the tracer and profiler that
   [mdqa serve] installs) after one served chase query: its spans reply
   holds the request's serve.request and eval scopes with every [ts] and
   [dur] printed as a JSON float, and its distinct span names are the
   phase names of its profile reply. *)
let test_spans_reply () =
  let dir = Filename.temp_file "mdqa_spans" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "s.sock" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       Mdqa_obs.Trace.install (Mdqa_obs.Trace.create ());
       Mdqa_obs.Profile.install (Mdqa_obs.Profile.create ());
       match Service.load ~program_file:"../examples/hospital.dl" () with
       | Ok svc ->
         ignore (Server.run (Server.default_config (Server.Unix_path sock)) svc)
       | Error _ -> ()
     with _ -> ());
    Unix._exit 0
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Array.iter
          (fun e -> Sys.remove (Filename.concat dir e))
          (Sys.readdir dir);
        Unix.rmdir dir)
    @@ fun () ->
    let waited = ref 0 in
    while (not (Sys.file_exists sock)) && !waited < 200 do
      Unix.sleepf 0.05;
      incr waited
    done;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    let ic = Unix.in_channel_of_descr fd
    and oc = Unix.out_channel_of_descr fd in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let request line =
      output_string oc (line ^ "\n");
      flush oc;
      let reply = input_line ic in
      match Jsonl.parse reply with
      | Ok json -> (reply, json)
      | Error e -> Alcotest.failf "unparseable reply %s: %s" reply e
    in
    let field name json =
      match Jsonl.member name json with
      | Some v -> v
      | None -> Alcotest.failf "reply without %s" name
    in
    let names key rows =
      List.filter_map (Jsonl.str_field key)
        (Option.value ~default:[] (Jsonl.to_list rows))
      |> List.sort_uniq String.compare
    in
    let _, answered =
      request
        {|{"kind":"query","query":"q(U, D, P) :- patient_unit(U, D, P)"}|}
    in
    Alcotest.(check (option string)) "query answered" (Some "complete")
      (Jsonl.str_field "status" answered);
    let text, spans = request {|{"kind":"spans"}|} in
    let span_names = names "name" (field "spans" spans) in
    List.iter
      (fun name ->
        Alcotest.(check bool) (name ^ " span served") true
          (List.mem name span_names))
      [ "serve.request"; "eval"; "protocol.reply" ];
    List.iter
      (fun key ->
        let lits = literals_after key text in
        Alcotest.(check bool) (key ^ " fields present") true (lits <> []);
        List.iter
          (fun lit ->
            if not (String.exists (fun c -> c = '.' || c = 'e') lit) then
              Alcotest.failf "%s printed as %s, not a float" key lit)
          lits)
      [ "ts"; "dur" ];
    let _, profile = request {|{"kind":"profile"}|} in
    Alcotest.(check (list string)) "span names = profile phases" span_names
      (names "phase" (field "phases" (field "profile" profile)))

(* --- the live inline server ---------------------------------------------- *)

(* A server forked from the test process: it answers every request
   inline from a warm [Service] over [program], armed with the
   [failpoints] spec, with the tracer and failpoint metrics that
   [mdqa serve] installs, under [config] applied to the defaults.  Its
   process exit code is [Server.run]'s result. *)
type live = { sock : string; pid : int; mutable reaped : bool }

let hospital = "../examples/hospital.dl"
let layers = "corpus/layers.dl"
let hospital_q = "q(U, D, P) :- patient_unit(U, D, P)"

let query_line ?id ?engine ?(extra = "") q =
  Printf.sprintf {|{"kind":"query","query":"%s"%s%s%s}|} q
    (match engine with
     | Some e -> Printf.sprintf {|,"engine":"%s"|} e
     | None -> "")
    (match id with Some i -> Printf.sprintf {|,"id":%d|} i | None -> "")
    extra

let runaway_line ?id ?extra () =
  query_line ?id ?extra ~engine:"rewrite" "q(Y) :- p6(n1, Y)"

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* Every read on a test connection gives up after 10 s, so a server
   that never answers fails the case instead of hanging the suite. *)
let connect srv =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  Unix.connect fd (Unix.ADDR_UNIX srv.sock);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* All of [lines] in one write, so the server reads them in one chunk. *)
let send c lines =
  List.iter (fun l -> output_string c.oc (l ^ "\n")) lines;
  flush c.oc

let recv c =
  let line = input_line c.ic in
  match Protocol.parse_reply line with
  | Ok r -> r
  | Error e -> Alcotest.failf "unparseable reply %s: %s" line e

let request c line =
  send c [ line ];
  recv c

let closed_by_server c =
  match input_line c.ic with
  | _ -> false
  | exception End_of_file -> true

let reply_id (r : Protocol.reply) =
  match r.Protocol.id with Some (Jsonl.Num n) -> int_of_float n | _ -> -1

(* The child's exit code once it is gone, waiting at most [limit]
   seconds; [None] when it is still running. *)
let wait_exit ?(limit = 10.) srv =
  let until = Unix.gettimeofday () +. limit in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when Unix.gettimeofday () < until ->
      Unix.sleepf 0.02;
      poll ()
    | 0, _ -> None
    | _, Unix.WEXITED code ->
      srv.reaped <- true;
      Some code
    | _, _ ->
      srv.reaped <- true;
      Some (-1)
  in
  poll ()

let drain srv =
  Unix.kill srv.pid Sys.sigterm;
  match wait_exit srv with
  | Some code -> code
  | None -> Alcotest.fail "server did not exit within 10 s of SIGTERM"

let with_server ?(failpoints = "") ?(config = Fun.id) program f =
  let dir = Filename.temp_file "mdqa_inline" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "s.sock" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Failpoint.disarm_all ();
        (match Failpoint.arm_spec failpoints with
         | Ok () -> ()
         | Error msg -> failwith msg);
        Mdqa_obs.Trace.install (Mdqa_obs.Trace.create ());
        match Service.load ~program_file:program () with
        | Ok svc ->
          Failpoint.attach_metrics (Service.metrics svc);
          Server.run (config (Server.default_config (Server.Unix_path sock)))
            svc
        | Error _ -> 100
      with _ -> 101
    in
    Unix._exit code
  | pid ->
    let srv = { sock; pid; reaped = false } in
    Fun.protect
      ~finally:(fun () ->
        if not srv.reaped then (
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid));
        Array.iter
          (fun e -> Sys.remove (Filename.concat dir e))
          (Sys.readdir dir);
        Unix.rmdir dir)
    @@ fun () ->
    let waited = ref 0 in
    while (not (Sys.file_exists sock)) && !waited < 200 do
      Unix.sleepf 0.05;
      incr waited
    done;
    f srv

let check_status what expected (r : Protocol.reply) =
  Alcotest.(check string) (what ^ ": status") expected r.Protocol.status

let check_code what expected (r : Protocol.reply) =
  Alcotest.(check (option string)) (what ^ ": code") (Some expected)
    r.Protocol.code

let check_reason what expected (r : Protocol.reply) =
  Alcotest.(check (option string)) (what ^ ": reason") (Some expected)
    r.Protocol.reason

let exposition_line c prefix =
  let r = request c {|{"kind":"metrics"}|} in
  match Jsonl.str_field "exposition" r.Protocol.json with
  | None -> Alcotest.fail "metrics reply without an exposition"
  | Some text ->
    List.find_opt
      (fun l -> String.starts_with ~prefix l)
      (String.split_on_char '\n' text)

let health_server c =
  let r = request c {|{"kind":"health"}|} in
  match Jsonl.member "server" r.Protocol.json with
  | Some (Jsonl.Obj fields) -> fields
  | _ -> Alcotest.fail "health reply without a server object"

(* The third query raises inside the handler: it costs one E027 reply
   on its own connection, the queries around it complete, and the warm
   fixpoint answers as before. *)
let test_inline_crash_isolated () =
  with_server ~failpoints:"serve.request=err@3" hospital @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  let replies = List.init 5 (fun i -> request c (query_line ~id:i hospital_q)) in
  List.iteri
    (fun i r ->
      let what = Printf.sprintf "query %d" i in
      Alcotest.(check int) (what ^ ": id") i (reply_id r);
      if i = 2 then (
        check_status what "error" r;
        check_code what "E027" r)
      else (
        check_status what "complete" r;
        Alcotest.(check bool) (what ^ ": answers as the first") true
          (r.Protocol.answers = (List.hd replies).Protocol.answers)))
    replies;
  Alcotest.(check int) "six answers" 6
    (List.length (Option.get (List.hd replies).Protocol.answers))

(* The crash is counted where an operator looks: the health reply's
   crashed_requests, the crash counter, and the site's hit counter,
   which counts queries only. *)
let test_inline_crash_counted () =
  with_server ~failpoints:"serve.request=err@2" hospital @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  for i = 0 to 3 do
    ignore (request c (query_line ~id:i hospital_q));
    ignore (request c {|{"kind":"ping"}|})
  done;
  Alcotest.(check bool) "health: one crashed request" true
    (List.assoc_opt "crashed_requests" (health_server c)
    = Some (Jsonl.Num 1.));
  Alcotest.(check (option string)) "crash counter"
    (Some "mdqa_server_crashed_total 1")
    (exposition_line c "mdqa_server_crashed_total");
  Alcotest.(check (option string)) "one hit per query"
    (Some {|mdqa_failpoint_hits_total{name="serve.request"} 4|})
    (exposition_line c {|mdqa_failpoint_hits_total{name="serve.request"}|})

(* A client handed an E027 reply returns it: a crash is the server
   speaking, not a transient failure to retry. *)
let test_inline_client_no_retry () =
  with_server ~failpoints:"serve.request=err@1" hospital @@ fun srv ->
  let client = Client.create ~addr:srv.sock () in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  (match Client.roundtrip client (query_line hospital_q) with
   | Ok r ->
     check_status "crashed query" "error" r;
     check_code "crashed query" "E027" r
   | Error e -> Alcotest.failf "roundtrip failed: %s" e);
  Alcotest.(check int) "no retry" 0 (Client.retries client);
  match Client.roundtrip client (query_line hospital_q) with
  | Ok r -> check_status "next query" "complete" r
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

(* A rewrite whose unfolding explodes, sent without a "timeout", ends
   degraded at the server's default deadline with no watchdog. *)
let test_inline_default_deadline () =
  with_server layers
    ~config:(fun c -> { c with Server.request_timeout = 0.5 })
  @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let r = request c (runaway_line ~id:1 ()) in
  check_status "runaway rewrite" "degraded" r;
  check_reason "runaway rewrite" "deadline" r;
  Alcotest.(check bool) "ended near its deadline" true
    (Unix.gettimeofday () -. t0 < 3.)

(* A ping queued behind the runaway rewrite on another connection is
   answered once the deadline ends the rewrite. *)
let test_inline_ping_behind_runaway () =
  with_server layers
    ~config:(fun c -> { c with Server.request_timeout = 0.5 })
  @@ fun srv ->
  let a = connect srv and b = connect srv in
  Fun.protect ~finally:(fun () -> disconnect a; disconnect b) @@ fun () ->
  check_status "warm-up ping" "complete" (request b {|{"kind":"ping"}|});
  let t0 = Unix.gettimeofday () in
  send a [ runaway_line ~id:1 () ];
  Unix.sleepf 0.1;
  check_status "ping" "complete" (request b {|{"kind":"ping","id":2}|});
  Alcotest.(check bool) "answered within 3 s" true
    (Unix.gettimeofday () -. t0 < 3.);
  check_reason "runaway rewrite" "deadline" (recv a)

(* A request's own "timeout" takes precedence over the server's
   default: with a default of a minute, the runaway ends at its own. *)
let test_inline_own_timeout () =
  with_server layers
    ~config:(fun c -> { c with Server.request_timeout = 60. })
  @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let r = request c (runaway_line ~extra:{|,"timeout":0.3|} ()) in
  check_reason "runaway rewrite" "deadline" r;
  Alcotest.(check bool) "ended at its own deadline" true
    (Unix.gettimeofday () -. t0 < 3.)

(* The same for the step budget: [request_max_steps] bounds a proof
   query without a "max_steps" of its own, and yields to one it has. *)
let test_inline_own_max_steps () =
  with_server hospital
    ~config:(fun c -> { c with Server.request_max_steps = Some 2 })
  @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  let r = request c (query_line ~engine:"proof" hospital_q) in
  check_status "server's budget" "degraded" r;
  check_reason "server's budget" "steps" r;
  let r =
    request c
      (query_line ~engine:"proof" ~extra:{|,"max_steps":1000000|} hospital_q)
  in
  check_status "own budget" "complete" r

(* Requests pipelined in one write, well-formed or not, are answered
   exactly once each: nothing is lost, nothing is answered twice. *)
let test_inline_pipelined_once () =
  with_server hospital @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  send c
    [ {|{"kind":"ping","id":1}|};
      query_line ~id:2 hospital_q;
      query_line ~id:3 "q(X) :- zz(X), zz(X, Y).";
      {|{"kind":"nonsense","id":4}|};
      query_line ~id:5 ~engine:"proof" hospital_q;
      {|{"kind":"health","id":6}|} ];
  let replies = List.init 6 (fun _ -> recv c) in
  (* a request refused by the protocol parser is answered without its
     id: the id is read from a request only once it parses *)
  let by_id i =
    match List.filter (fun r -> reply_id r = i) replies with
    | [ r ] -> r
    | l -> Alcotest.failf "request %d answered %d times" i (List.length l)
  in
  check_status "ping" "complete" (by_id 1);
  check_status "chase query" "complete" (by_id 2);
  check_code "arity clash" "E011" (by_id 3);
  check_code "unknown kind" "E024" (by_id (-1));
  check_status "proof query" "complete" (by_id 5);
  check_status "health" "complete" (by_id 6);
  check_status "then a ping" "complete" (request c {|{"kind":"ping","id":7}|})

(* A line that is not JSON costs one E024 reply; the connection stays
   open for the requests behind it. *)
let test_inline_garbage_kept () =
  with_server hospital @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  check_code "garbage" "E024" (request c "{not json");
  check_status "next query" "complete" (request c (query_line hospital_q))

(* A line over [max_request_bytes] is answered E025 and its connection
   closed; other connections are unaffected. *)
let test_inline_oversized_closed () =
  with_server hospital
    ~config:(fun c -> { c with Server.max_request_bytes = 64 })
  @@ fun srv ->
  let c = connect srv and other = connect srv in
  Fun.protect ~finally:(fun () -> disconnect c; disconnect other) @@ fun () ->
  check_code "oversized" "E025"
    (request c (query_line hospital_q ~extra:(String.make 100 ' ')));
  Alcotest.(check bool) "connection closed" true (closed_by_server c);
  check_status "other connection" "complete"
    (request other {|{"kind":"ping"}|})

(* A line not finished within [read_timeout] is answered E026 and its
   connection closed. *)
let test_inline_slow_line_closed () =
  with_server hospital
    ~config:(fun c -> { c with Server.read_timeout = 0.3 })
  @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  output_string c.oc {|{"kind":|};
  flush c.oc;
  check_code "slow line" "E026" (recv c);
  Alcotest.(check bool) "connection closed" true (closed_by_server c)

(* Requests beyond the admission queue's capacity are shed at once with
   W047 and counted; the admitted one is answered. *)
let test_inline_queue_sheds () =
  with_server hospital ~config:(fun c -> { c with Server.max_queue = 1 })
  @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  send c (List.init 3 (fun i -> query_line ~id:i hospital_q));
  let replies = List.init 3 (fun _ -> recv c) in
  List.iter
    (fun r ->
      if reply_id r = 0 then check_status "admitted" "complete" r
      else (
        check_code "shed" "W047" r;
        check_reason "shed" "overload" r))
    replies;
  match List.assoc_opt "queue" (health_server c) with
  | Some q ->
    Alcotest.(check bool) "two shed" true
      (Jsonl.member "shed" q = Some (Jsonl.Num 2.))
  | None -> Alcotest.fail "health reply without the queue"

(* A connection beyond [max_clients] is refused with W047 and closed,
   not left hanging. *)
let test_inline_clients_shed () =
  with_server hospital ~config:(fun c -> { c with Server.max_clients = 1 })
  @@ fun srv ->
  let a = connect srv in
  Fun.protect ~finally:(fun () -> disconnect a) @@ fun () ->
  check_status "first client" "complete" (request a {|{"kind":"ping"}|});
  let b = connect srv in
  Fun.protect ~finally:(fun () -> disconnect b) @@ fun () ->
  let r = recv b in
  check_code "second client" "W047" r;
  check_reason "second client" "overload" r;
  Alcotest.(check bool) "second client closed" true (closed_by_server b);
  check_status "first client kept" "complete" (request a {|{"kind":"ping"}|})

(* SIGTERM while a query runs: the query is answered in full, the
   server exits 0 and removes its socket. *)
let test_inline_drain_answers () =
  with_server ~failpoints:"serve.request=delay:1000@1" hospital @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  check_status "warm-up ping" "complete" (request c {|{"kind":"ping"}|});
  send c [ query_line hospital_q ];
  Unix.sleepf 0.2;
  Unix.kill srv.pid Sys.sigterm;
  check_status "in-flight query" "complete" (recv c);
  Alcotest.(check (option int)) "exit 0" (Some 0) (wait_exit srv);
  Alcotest.(check bool) "socket removed" false (Sys.file_exists srv.sock)

(* A request that arrives once the drain has begun is answered H053,
   and the degraded request makes the exit code 2. *)
let test_inline_drain_refuses_new () =
  with_server ~failpoints:"serve.request=delay:1500@1" hospital @@ fun srv ->
  let a = connect srv and b = connect srv in
  Fun.protect ~finally:(fun () -> disconnect a; disconnect b) @@ fun () ->
  check_status "warm-up a" "complete" (request a {|{"kind":"ping"}|});
  check_status "warm-up b" "complete" (request b {|{"kind":"ping"}|});
  send a [ query_line hospital_q ];
  Unix.sleepf 0.4;
  send b [ {|{"kind":"ping","id":2}|} ];
  Unix.kill srv.pid Sys.sigterm;
  check_status "in-flight query" "complete" (recv a);
  let r = recv b in
  check_code "after the drain began" "H053" r;
  check_reason "after the drain began" "drain" r;
  Alcotest.(check (option int)) "exit 2" (Some 2) (wait_exit srv)

(* The health reply's server object holds the inline server's fields
   and nothing of a worker pool. *)
let test_inline_health_fields () =
  with_server hospital @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  Alcotest.(check (list string)) "server fields"
    [ "connections"; "crashed_requests"; "draining"; "queue"; "role" ]
    (List.sort String.compare (List.map fst (health_server c)))

let inline_cases =
  [ case "crash mid-request answered E027 once, the loop goes on"
      test_inline_crash_isolated;
    case "crashed requests show in health and metrics"
      test_inline_crash_counted;
    case "client returns an E027 reply without retrying"
      test_inline_client_no_retry;
    case "default deadline degrades a runaway rewrite"
      test_inline_default_deadline;
    case "ping behind a runaway answered after its deadline"
      test_inline_ping_behind_runaway;
    case "own timeout precedes the default deadline" test_inline_own_timeout;
    case "own max_steps precedes request_max_steps" test_inline_own_max_steps;
    case "pipelined requests answered exactly once each"
      test_inline_pipelined_once;
    case "malformed line is E024, connection kept" test_inline_garbage_kept;
    case "oversized line is E025, connection closed"
      test_inline_oversized_closed;
    case "slow line is E026, connection closed" test_inline_slow_line_closed;
    case "full admission queue sheds W047" test_inline_queue_sheds;
    case "surplus client refused W047" test_inline_clients_shed;
    case "drain answers in-flight, exits 0" test_inline_drain_answers;
    case "after drain begins, requests are H053, exit 2"
      test_inline_drain_refuses_new;
    case "health server fields hold no pool" test_inline_health_fields ]

let suites =
  [ ( "server.backoff-breaker-admission",
      [ case "breaker: trip, probe, re-open, recover"
          test_breaker_trip_and_recover;
        case "breaker: cooldown doubles up to the cap"
          test_breaker_cooldown_cap;
        case "breaker: retry_in is the remaining cooldown on its clock"
          test_breaker_retry_in;
        case "admission: fifo order and shed accounting"
          test_admission_fifo_and_shed ] );
    ( "server.service",
      [ case "persisted fixpoint: cadence ticks write nothing"
          test_service_quiet_when_persisted;
        case "unlinked or replaced image is rewritten"
          test_service_rewrites_lost_image;
        case "out-of-band trip: probe writes and closes"
          test_service_trip_heals;
        case "a query with a trailing NC or EGD is E002"
          test_service_rejects_query_tail;
        case "a refused query keeps the parser's code"
          test_service_keeps_parser_code;
        case "default request deadline is 10 s" test_default_request_deadline;
        case "degraded chase query keeps its partial answers"
          test_service_degraded_keeps_partial;
        case "proof request honours its timeout" test_service_proof_timeout;
        case "cyclic rewrite request is refused at once"
          test_service_refuses_cyclic_rewrite;
        case "proof steps are not charged to the server budget"
          test_service_proof_steps_not_charged;
        case "every engine answers as Answer.answer does"
          test_service_matches_answer;
        case "spans reply: served scopes, float seconds, profile layers"
          test_spans_reply ] );
    ( "server.protocol",
      [ case "jsonl: unicode escapes and trailing bytes" test_jsonl_unicode;
        case "jsonl: nesting depth limit" test_jsonl_depth_limit;
        case "parse_request: well-formed" test_parse_request_ok;
        case "parse_request: malformations are E024" test_parse_request_bad;
        case "replies round-trip through parse_reply" test_reply_roundtrip;
        case "complete reply bytes are pinned" test_reply_bytes;
        case "client: which replies are retried" test_client_retry_classification ] );
    ( "server.failpoint",
      [ case "parse_spec: grammar, delay units, rejects" test_failpoint_parse;
        case "triggers: @N, @N+, off counting, disarm" test_failpoint_triggers;
        case "arm_spec / arm_env / re-arm keeps counts" test_failpoint_arm;
        case "crash and exit actions end a forked process"
          test_failpoint_process_actions ] );
    ( "server.guard-fork",
      [ case "fork caps child by parent remaining"
          test_fork_caps_child_by_remaining;
        case "fork honours a smaller requested budget"
          test_fork_requested_below_remaining;
        case "fork clamps a larger requested budget"
          test_fork_requested_above_remaining;
        case "fork reports a requested timeout as given"
          test_fork_reports_timeout_as_given;
        case "absorb folds consumption back"
          test_absorb_folds_consumption_back;
        case "absorb never raises" test_absorb_never_raises ] );
    ("server.inline", inline_cases);
    ("server.properties", qcheck_cases) ]
