(* Unit and property tests for the mdqa_server building blocks: backoff
   (the ISSUE's qcheck properties), circuit breaker transitions under an
   injected clock, admission-queue shedding, the JSONL codec, the wire
   protocol, and Guard.fork/absorb budget arithmetic.  The end-to-end
   loop — signals, socket faults, overload — is exercised by
   test/chaos_serve.sh. *)

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

(* --- worker: frame codec, envelope, classification -------------------- *)

let test_frame_codec () =
  Fdio.ignore_sigpipe ();
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  let r = Worker.Frame.reader () in
  Alcotest.(check bool) "empty pipe: nothing" true
    (Worker.Frame.poll r a = `Nothing);
  let write fd s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  (* two frames in one write arrive in order *)
  write b (Worker.Frame.encode "hello" ^ Worker.Frame.encode "world");
  (match Worker.Frame.poll r a with
   | `Frames [ "hello"; "world" ] -> ()
   | _ -> Alcotest.fail "expected both frames in order");
  (* a frame split mid-prefix survives partial delivery *)
  let big = String.make 100 'x' in
  let f = Worker.Frame.encode big in
  write b (String.sub f 0 2);
  Alcotest.(check bool) "partial prefix: nothing yet" true
    (Worker.Frame.poll r a = `Nothing);
  write b (String.sub f 2 (String.length f - 2));
  (match Worker.Frame.poll r a with
   | `Frames [ p ] -> Alcotest.(check string) "reassembled" big p
   | _ -> Alcotest.fail "expected the reassembled frame");
  Unix.close b;
  Alcotest.(check bool) "peer close is eof" true (Worker.Frame.poll r a = `Eof);
  Unix.close a

let test_frame_corrupt () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  let r = Worker.Frame.reader () in
  (* 0xFFFFFFFF little-endian: negative / far past max_payload *)
  ignore (Unix.write_substring b "\xff\xff\xff\xff" 0 4);
  (match Worker.Frame.poll r a with
   | `Error _ -> ()
   | _ -> Alcotest.fail "corrupt length prefix must be an error");
  Unix.close a;
  Unix.close b

let test_frame_read_blocking () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let msg = Worker.Frame.encode "payload" in
  ignore (Unix.write_substring a msg 0 (String.length msg));
  (match Worker.Frame.read_blocking b with
   | Some "payload" -> ()
   | _ -> Alcotest.fail "blocking read must return the payload");
  Unix.close a;
  Alcotest.(check bool) "eof is None" true (Worker.Frame.read_blocking b = None);
  Unix.close b

let test_envelope_roundtrip () =
  Failpoint.disarm_all ();
  Failpoint.arm "t.env2" { Failpoint.action = Failpoint.Off; trigger = Failpoint.Always };
  Failpoint.hit "t.env2";
  Failpoint.hit "t.env2";
  let env = Worker.envelope ~line:"the reply\n" ~status:"degraded" ~code:(Some "W049") in
  (match Worker.parse_envelope env with
   | Ok pr ->
     Alcotest.(check string) "line" "the reply\n" pr.Worker.line;
     Alcotest.(check string) "status" "degraded" pr.Worker.status;
     Alcotest.(check (option string)) "code" (Some "W049") pr.Worker.code;
     Alcotest.(check int) "failpoint counters piggybacked" 2
       (List.assoc "t.env2" pr.Worker.fp)
   | Error e -> Alcotest.fail e);
  Failpoint.disarm_all ();
  (match Worker.parse_envelope {|{"nope": 1}|} with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "envelope without status/line must be rejected");
  match Worker.parse_envelope "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage envelope must be rejected"

let test_classify () =
  let check_cls name expected status =
    Alcotest.(check bool) name true (Worker.classify status = expected)
  in
  check_cls "exit 0 is a recycle" Worker.Recycled (Unix.WEXITED 0);
  check_cls "exit 125 is a crash" (Worker.Crashed "exit 125") (Unix.WEXITED 125);
  check_cls "SIGKILL is a crash" (Worker.Crashed "SIGKILL")
    (Unix.WSIGNALED Sys.sigkill);
  check_cls "SIGSEGV is a crash" (Worker.Crashed "SIGSEGV")
    (Unix.WSIGNALED Sys.sigsegv);
  Alcotest.(check string) "signal_name" "SIGABRT" (Worker.signal_name Sys.sigabrt)

(* Failpoint-driven crash/exit classification against real forked
   processes: the same [hit] that fires in a worker, classified by the
   same [classify] the supervisor uses. *)
let test_classify_forked () =
  let status_after f =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      (try f () with _ -> ());
      Unix._exit 99
    | pid -> snd (Unix.waitpid [] pid)
  in
  Failpoint.disarm_all ();
  Failpoint.arm "t.die" { Failpoint.action = Failpoint.Crash; trigger = Failpoint.Always };
  Alcotest.(check bool) "crash action dies as SIGABRT" true
    (Worker.classify (status_after (fun () -> Failpoint.hit "t.die"))
     = Worker.Crashed "SIGABRT");
  Failpoint.arm "t.die" { Failpoint.action = Failpoint.Exit 7; trigger = Failpoint.Always };
  Alcotest.(check bool) "exit:7 action classifies as exit 7" true
    (Worker.classify (status_after (fun () -> Failpoint.hit "t.die"))
     = Worker.Crashed "exit 7");
  Failpoint.arm "t.die" { Failpoint.action = Failpoint.Exit 0; trigger = Failpoint.Always };
  Alcotest.(check bool) "exit:0 action classifies as a recycle" true
    (Worker.classify (status_after (fun () -> Failpoint.hit "t.die"))
     = Worker.Recycled);
  Failpoint.disarm_all ()

let test_should_retire () =
  let r = { Worker.max_requests = 100; max_heap_mb = 50. } in
  Alcotest.(check bool) "below both thresholds" false
    (Worker.should_retire ~served:99 ~heap_mb:10. r);
  Alcotest.(check bool) "request threshold" true
    (Worker.should_retire ~served:100 ~heap_mb:10. r);
  Alcotest.(check bool) "heap threshold" true
    (Worker.should_retire ~served:0 ~heap_mb:50.1 r);
  let off = { Worker.max_requests = 0; max_heap_mb = 0. } in
  Alcotest.(check bool) "zeroes disable retirement" false
    (Worker.should_retire ~served:1_000_000 ~heap_mb:4096. off)

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
    (Client.should_retry_reply ~idempotent:true overload <> None
     && Client.should_retry_reply ~idempotent:false overload <> None);
  let e029 =
    parsed_reply
      (Protocol.error_reply
         (Mdqa_datalog.Diag.make Mdqa_datalog.Diag.Error ~code:"E029"
            "worker crashed while handling this request (SIGKILL)"))
  in
  Alcotest.(check bool) "E029 retried when idempotent" true
    (Client.should_retry_reply ~idempotent:true e029 <> None);
  Alcotest.(check bool) "E029 not retried otherwise" true
    (Client.should_retry_reply ~idempotent:false e029 = None);
  let complete = parsed_reply (Protocol.complete_reply ~answers:None ()) in
  Alcotest.(check bool) "complete never retried" true
    (Client.should_retry_reply ~idempotent:true complete = None);
  (* a watchdog kill is NOT retried: the same query would hang the
     next worker too *)
  let w049 =
    parsed_reply
      (Protocol.degraded_reply ~code:"W049" ~reason:"watchdog" ~answers:None
         ~message:"killed" ())
  in
  Alcotest.(check bool) "watchdog kill never retried" true
    (Client.should_retry_reply ~idempotent:true w049 = None)

(* --- supervisor: state machine under fake hooks ------------------------ *)

(* The supervisor does everything through its hooks record and the
   worker fds, so the whole state machine runs here with a fake clock,
   a recording kill, scripted reaps and a spawn that hands back a
   socketpair instead of forking. *)
type sim = {
  mutable now : float;
  mutable killed : int list;
  exits : (int * Unix.process_status) Queue.t;
  mutable next_pid : int;
  mutable peers : (int * Unix.file_descr) list;
      (** pid -> the would-be child's end of the pipe *)
  mutable spawned : int;
}

let sim () =
  Fdio.ignore_sigpipe ();
  { now = 0.;
    killed = [];
    exits = Queue.create ();
    next_pid = 900_001;
    peers = [];
    spawned = 0 }

let sim_hooks s =
  { Supervisor.clock = (fun () -> s.now);
    kill = (fun pid -> s.killed <- pid :: s.killed);
    wait_any = (fun () -> Queue.take_opt s.exits);
    wait_pid =
      (fun pid ->
        let found = ref None in
        let rest = Queue.create () in
        Queue.iter
          (fun (p, st) ->
            if !found = None && p = pid then found := Some (p, st)
            else Queue.add (p, st) rest)
          s.exits;
        Queue.clear s.exits;
        Queue.transfer rest s.exits;
        !found);
    rand = (fun x -> x) }

let fake_spawn s ~on_child:_ =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  let pid = s.next_pid in
  s.next_pid <- s.next_pid + 1;
  s.spawned <- s.spawned + 1;
  s.peers <- (pid, b) :: s.peers;
  { Worker.pid; fd = a; reader = Worker.Frame.reader () }

let sim_cleanup sup s =
  Supervisor.shutdown sup ~grace:0.;
  List.iter
    (fun (_, fd) -> try Unix.close fd with Unix.Unix_error _ -> ())
    s.peers

(* Write one framed envelope into a worker's pipe from the child side;
   a closed parent end (already reaped) is fine. *)
let send_frame s pid payload =
  match List.assoc_opt pid s.peers with
  | None -> ()
  | Some fd -> (
    let data = Worker.Frame.encode payload in
    try ignore (Unix.write_substring fd data 0 (String.length data))
    with Unix.Unix_error _ -> ())

let drain_fds sup =
  List.iter (fun fd -> Supervisor.handle_readable sup fd) (Supervisor.fds sup)

let wdl () = Guard.Clock.now () +. 5.

let recorder () =
  let replies = ref [] in
  let reply ~status ~code line = replies := (status, code, line) :: !replies in
  (replies, reply)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_sup_frame_reply () =
  let s = sim () in
  let replies, reply = recorder () in
  let sup =
    Supervisor.start ~hooks:(sim_hooks s) ~watchdog:3. ~count:1
      ~spawn:(fake_spawn s) ~on_child:ignore ()
  in
  let pid0 = s.next_pid - 1 in
  Alcotest.(check int) "one ready worker" 1 (Supervisor.ready sup);
  Alcotest.(check bool) "dispatch accepted" true
    (Supervisor.dispatch sup ~line:"{}" ~req_id:None ~write_deadline:(wdl ())
       ~reply);
  Alcotest.(check int) "one inflight" 1 (Supervisor.inflight sup);
  Alcotest.(check int) "busy, not ready" 0 (Supervisor.ready sup);
  send_frame s pid0 (Worker.envelope ~line:"ok\n" ~status:"complete" ~code:None);
  drain_fds sup;
  (match !replies with
   | [ ("complete", None, "ok\n") ] -> ()
   | _ -> Alcotest.fail "expected exactly the worker's reply");
  Alcotest.(check int) "slot back to ready" 1 (Supervisor.ready sup);
  Alcotest.(check int) "nothing inflight" 0 (Supervisor.inflight sup);
  (* long past the watchdog deadline: an answered slot is left alone *)
  s.now <- 100.;
  Supervisor.tick sup;
  Alcotest.(check int) "no late watchdog reply" 1 (List.length !replies);
  Alcotest.(check int) "no kills" 0 (List.length s.killed);
  sim_cleanup sup s

let test_sup_watchdog () =
  let s = sim () in
  let replies, reply = recorder () in
  let sup =
    Supervisor.start ~hooks:(sim_hooks s) ~watchdog:3. ~count:1
      ~spawn:(fake_spawn s) ~on_child:ignore ()
  in
  let pid0 = s.next_pid - 1 in
  ignore
    (Supervisor.dispatch sup ~line:"{}" ~req_id:None ~write_deadline:(wdl ())
       ~reply);
  s.now <- 4.;
  Supervisor.tick sup;
  (match !replies with
   | [ ("degraded", Some "W049", line) ] ->
     Alcotest.(check bool) "reply names the deadline" true
       (contains line "deadline")
   | _ -> Alcotest.fail "expected one W049 degraded reply");
  Alcotest.(check bool) "hung pid SIGKILLed" true (s.killed = [ pid0 ]);
  Alcotest.(check int) "watchdog_kills" 1 (Supervisor.watchdog_kills sup);
  Alcotest.(check int) "answered: nothing inflight" 0 (Supervisor.inflight sup);
  (* a late reply from the doomed worker is dropped *)
  send_frame s pid0 (Worker.envelope ~line:"late\n" ~status:"complete" ~code:None);
  drain_fds sup;
  Alcotest.(check int) "late frame dropped" 1 (List.length !replies);
  (* the reap classifies the SIGKILL as a crash but sends no E029 *)
  Queue.add (pid0, Unix.WSIGNALED Sys.sigkill) s.exits;
  Alcotest.(check int) "reaped" 1 (Supervisor.reap sup);
  Alcotest.(check int) "no extra reply at reap" 1 (List.length !replies);
  Alcotest.(check int) "restart counted" 1 (Supervisor.restarts sup);
  (* cooldown, then the slot comes back *)
  (match Supervisor.next_wakeup sup with
   | Some u -> s.now <- u
   | None -> Alcotest.fail "a cooldown must be scheduled");
  Supervisor.tick sup;
  Alcotest.(check int) "respawned" 2 s.spawned;
  Alcotest.(check int) "ready again" 1 (Supervisor.ready sup);
  sim_cleanup sup s

let test_sup_crash_e029 () =
  let s = sim () in
  let replies, reply = recorder () in
  let sup =
    Supervisor.start ~hooks:(sim_hooks s) ~count:1 ~spawn:(fake_spawn s)
      ~on_child:ignore ()
  in
  let pid0 = s.next_pid - 1 in
  ignore
    (Supervisor.dispatch sup ~line:"{}" ~req_id:None ~write_deadline:(wdl ())
       ~reply);
  Queue.add (pid0, Unix.WSIGNALED Sys.sigsegv) s.exits;
  Alcotest.(check int) "reaped" 1 (Supervisor.reap sup);
  (match !replies with
   | [ ("error", Some "E029", line) ] ->
     Alcotest.(check bool) "cause in the reply" true (contains line "SIGSEGV")
   | _ -> Alcotest.fail "expected exactly one E029 reply");
  Alcotest.(check int) "restart counted" 1 (Supervisor.restarts sup);
  Alcotest.(check int) "not a recycle" 0 (Supervisor.recycles sup);
  Alcotest.(check int) "nothing inflight" 0 (Supervisor.inflight sup);
  sim_cleanup sup s

let test_sup_recycle_idle () =
  let s = sim () in
  let replies, _reply = recorder () in
  let sup =
    Supervisor.start ~hooks:(sim_hooks s) ~count:1 ~spawn:(fake_spawn s)
      ~on_child:ignore ()
  in
  let pid0 = s.next_pid - 1 in
  Queue.add (pid0, Unix.WEXITED 0) s.exits;
  Alcotest.(check int) "reaped" 1 (Supervisor.reap sup);
  Alcotest.(check int) "recycle counted" 1 (Supervisor.recycles sup);
  Alcotest.(check int) "not a restart" 0 (Supervisor.restarts sup);
  Alcotest.(check int) "no reply for an idle exit" 0 (List.length !replies);
  (* recycling carries no backoff: the replacement spawns immediately *)
  Supervisor.tick sup;
  Alcotest.(check int) "respawned at once" 2 s.spawned;
  Alcotest.(check int) "ready" 1 (Supervisor.ready sup);
  sim_cleanup sup s

let test_sup_exit0_midrequest () =
  let s = sim () in
  let replies, reply = recorder () in
  let sup =
    Supervisor.start ~hooks:(sim_hooks s) ~count:1 ~spawn:(fake_spawn s)
      ~on_child:ignore ()
  in
  let pid0 = s.next_pid - 1 in
  ignore
    (Supervisor.dispatch sup ~line:"{}" ~req_id:None ~write_deadline:(wdl ())
       ~reply);
  Queue.add (pid0, Unix.WEXITED 0) s.exits;
  ignore (Supervisor.reap sup);
  (* an exit 0 with a request in hand is a fault, not a recycle: the
     client gets its E029 and the slot pays crash backoff *)
  (match !replies with
   | [ ("error", Some "E029", _) ] -> ()
   | _ -> Alcotest.fail "expected an E029 for the abandoned request");
  Alcotest.(check int) "classified as a crash" 1 (Supervisor.restarts sup);
  Alcotest.(check int) "not a recycle" 0 (Supervisor.recycles sup);
  sim_cleanup sup s

let test_sup_backoff () =
  let policy =
    Backoff.policy ~base:1. ~cap:8. ~max_attempts:1000 ~budget:1e9 ()
  in
  let s = sim () in
  let sup =
    Supervisor.start ~hooks:(sim_hooks s) ~policy ~healthy_after:5. ~count:1
      ~spawn:(fake_spawn s) ~on_child:ignore ()
  in
  let crash () =
    Queue.add (s.next_pid - 1, Unix.WSIGNALED Sys.sigsegv) s.exits;
    ignore (Supervisor.reap sup)
  in
  let delay () =
    match Supervisor.next_wakeup sup with
    | Some u -> u -. s.now
    | None -> Alcotest.fail "a cooldown must be scheduled"
  in
  let respawn () =
    (match Supervisor.next_wakeup sup with
     | Some u -> s.now <- u
     | None -> Alcotest.fail "a cooldown must be scheduled");
    Supervisor.tick sup
  in
  (* rand is the identity in sim_hooks, so delays are the full jitter
     ceiling: deterministic and strictly growing until the cap *)
  crash ();
  let d1 = delay () in
  Alcotest.(check bool) "first delay positive" true (d1 > 0.);
  respawn ();
  crash ();
  let d2 = delay () in
  Alcotest.(check bool) "instant re-crash: delay grows" true (d2 > d1);
  respawn ();
  for _ = 1 to 8 do
    crash ();
    Alcotest.(check bool) "delay never exceeds the cap" true
      (delay () <= 8. +. 1e-9);
    respawn ()
  done;
  (* a healthy uptime earns the attempts back *)
  s.now <- s.now +. 6.;
  crash ();
  Alcotest.(check (float 1e-9)) "healthy uptime resets the walk" d1 (delay ());
  sim_cleanup sup s

let test_sup_quorum () =
  let s = sim () in
  let _replies, reply = recorder () in
  let sup =
    Supervisor.start ~hooks:(sim_hooks s) ~count:2 ~min_ready:2
      ~spawn:(fake_spawn s) ~on_child:ignore ()
  in
  let p0 = s.next_pid - 2 and p1 = s.next_pid - 1 in
  Alcotest.(check bool) "quorum with both up" true (Supervisor.quorum sup);
  Alcotest.(check int) "alive" 2 (Supervisor.alive sup);
  Queue.add (p0, Unix.WSIGNALED Sys.sigkill) s.exits;
  Queue.add (p1, Unix.WSIGNALED Sys.sigkill) s.exits;
  Alcotest.(check int) "both reaped" 2 (Supervisor.reap sup);
  Alcotest.(check int) "none alive" 0 (Supervisor.alive sup);
  Alcotest.(check bool) "quorum lost" false (Supervisor.quorum sup);
  Alcotest.(check int) "min_ready exposed" 2 (Supervisor.min_ready sup);
  Alcotest.(check bool) "dispatch refused on a dead pool" false
    (Supervisor.dispatch sup ~line:"{}" ~req_id:None ~write_deadline:(wdl ())
       ~reply);
  (match Supervisor.next_wakeup sup with
   | Some u -> s.now <- u
   | None -> Alcotest.fail "cooldowns must be scheduled");
  Supervisor.tick sup;
  Alcotest.(check int) "both respawned" 4 s.spawned;
  Alcotest.(check bool) "quorum regained" true (Supervisor.quorum sup);
  sim_cleanup sup s

let test_sup_abort () =
  let s = sim () in
  let replies, reply = recorder () in
  let sup =
    Supervisor.start ~hooks:(sim_hooks s) ~count:1 ~spawn:(fake_spawn s)
      ~on_child:ignore ()
  in
  let pid0 = s.next_pid - 1 in
  ignore
    (Supervisor.dispatch sup ~line:"{}" ~req_id:None ~write_deadline:(wdl ())
       ~reply);
  Alcotest.(check int) "one aborted" 1
    (Supervisor.abort_inflight sup ~code:"H053" ~reason:"drain"
       ~message:"draining");
  (match !replies with
   | [ ("degraded", Some "H053", _) ] -> ()
   | _ -> Alcotest.fail "expected one H053 degraded reply");
  Alcotest.(check int) "second abort finds nothing" 0
    (Supervisor.abort_inflight sup ~code:"H053" ~reason:"drain"
       ~message:"draining");
  (* the worker's own answer arrives after the abort: dropped *)
  send_frame s pid0 (Worker.envelope ~line:"late\n" ~status:"complete" ~code:None);
  drain_fds sup;
  Alcotest.(check int) "late answer dropped" 1 (List.length !replies);
  sim_cleanup sup s

let test_sup_failover () =
  let s = sim () in
  let _replies, reply = recorder () in
  let sup =
    Supervisor.start ~hooks:(sim_hooks s) ~count:2 ~spawn:(fake_spawn s)
      ~on_child:ignore ()
  in
  let p0 = s.next_pid - 2 in
  (* break slot 0's pipe: its dispatch write will fail *)
  (match List.assoc_opt p0 s.peers with
   | Some fd -> Unix.close fd
   | None -> Alcotest.fail "peer fd tracked");
  s.peers <- List.remove_assoc p0 s.peers;
  Alcotest.(check bool) "dispatch fails over to the healthy worker" true
    (Supervisor.dispatch sup ~line:"{}" ~req_id:None ~write_deadline:(wdl ())
       ~reply);
  Alcotest.(check bool) "broken worker killed" true (List.mem p0 s.killed);
  Alcotest.(check int) "request landed on the sibling" 1 (Supervisor.busy sup);
  Alcotest.(check int) "one inflight" 1 (Supervisor.inflight sup);
  sim_cleanup sup s

(* --- supervisor: qcheck properties ------------------------------------ *)

let prop_next_attempts =
  QCheck.Test.make
    ~name:"supervisor: crash count resets after healthy uptime, else grows"
    ~count:500
    (QCheck.make
       ~print:(fun (h, u, a) ->
         Printf.sprintf "healthy_after=%g uptime=%g attempts=%d" h u a)
       QCheck.Gen.(
         triple (float_range 0.1 10.) (float_range 0. 20.) (int_range 0 50)))
    (fun (healthy_after, uptime, attempts) ->
      let n = Supervisor.next_attempts ~healthy_after ~uptime ~attempts in
      if uptime >= healthy_after then n = 1 else n = attempts + 1)

let prop_restart_delay_bounded =
  QCheck.Test.make
    ~name:"supervisor: restart delay bounded by the cap, monotone in attempts"
    ~count:500
    QCheck.(pair policy_arb (pair (int_range 1 60) int))
    (fun (pspec, (attempts, seed)) ->
      let p = mk_policy pspec in
      let st = Random.State.make [| seed |] in
      let d =
        Supervisor.restart_delay p ~rand:(Random.State.float st) ~attempts
      in
      let id x = x in
      let here = Supervisor.restart_delay p ~rand:id ~attempts in
      let next = Supervisor.restart_delay p ~rand:id ~attempts:(attempts + 1) in
      d >= 0. && d <= p.Backoff.cap && here <= next)

(* The exactly-once invariant: one dispatched request, an arbitrary
   interleaving of worker reply, worker death, watchdog expiry and
   no-op ticks, with a drain abort at the end — the client hears back
   exactly once no matter the order. *)
let prop_sup_single_reply =
  let event_gen = QCheck.Gen.oneofl [ `Frame; `Exit; `Watchdog; `Tick ] in
  let print_event = function
    | `Frame -> "frame"
    | `Exit -> "exit"
    | `Watchdog -> "watchdog"
    | `Tick -> "tick"
  in
  QCheck.Test.make
    ~name:"supervisor: a dispatched request is answered exactly once"
    ~count:150
    (QCheck.make
       ~print:(fun evs -> String.concat "," (List.map print_event evs))
       QCheck.Gen.(list_size (int_range 0 6) event_gen))
    (fun events ->
      let s = sim () in
      let policy =
        Backoff.policy ~base:0.1 ~cap:1. ~max_attempts:1000 ~budget:1e9 ()
      in
      let sup =
        Supervisor.start ~hooks:(sim_hooks s) ~policy ~watchdog:3. ~count:1
          ~spawn:(fake_spawn s) ~on_child:ignore ()
      in
      let pid0 = s.next_pid - 1 in
      let n_replies = ref 0 in
      let reply ~status:_ ~code:_ _ = incr n_replies in
      let ok =
        Supervisor.dispatch sup ~line:"{}" ~req_id:None
          ~write_deadline:(wdl ()) ~reply
      in
      let exited = ref false in
      List.iter
        (fun ev ->
          match ev with
          | `Frame ->
            send_frame s pid0
              (Worker.envelope ~line:"r\n" ~status:"complete" ~code:None);
            drain_fds sup
          | `Exit ->
            if not !exited then begin
              exited := true;
              Queue.add (pid0, Unix.WSIGNALED Sys.sigkill) s.exits
            end;
            ignore (Supervisor.reap sup)
          | `Watchdog ->
            s.now <- s.now +. 10.;
            Supervisor.tick sup
          | `Tick -> Supervisor.tick sup)
        events;
      ignore
        (Supervisor.abort_inflight sup ~code:"H053" ~reason:"drain"
           ~message:"draining");
      sim_cleanup sup s;
      ok && !n_replies = 1)

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
      prop_jsonl_printing_reference;
      prop_next_attempts; prop_restart_delay_bounded; prop_sup_single_reply ]

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
        case "arm_spec / arm_env / re-arm keeps counts" test_failpoint_arm ] );
    ( "server.worker",
      [ case "frame codec: order, split delivery, eof" test_frame_codec;
        case "frame codec: corrupt length is an error" test_frame_corrupt;
        case "frame codec: blocking child read" test_frame_read_blocking;
        case "envelope round-trips with failpoint counters"
          test_envelope_roundtrip;
        case "exit classification" test_classify;
        case "failpoint-driven crash/exit classification (forked)"
          test_classify_forked;
        case "recycling thresholds" test_should_retire ] );
    ( "server.supervisor",
      [ case "worker reply answers once; watchdog stays quiet"
          test_sup_frame_reply;
        case "watchdog: W049 once, SIGKILL, restart after cooldown"
          test_sup_watchdog;
        case "crash mid-request: E029 exactly once" test_sup_crash_e029;
        case "idle exit 0 is a recycle, not a crash" test_sup_recycle_idle;
        case "exit 0 mid-request is a crash with E029"
          test_sup_exit0_midrequest;
        case "crash-loop backoff: capped, resets when healthy"
          test_sup_backoff;
        case "quorum flips with deaths and respawns" test_sup_quorum;
        case "drain aborts in-flight exactly once" test_sup_abort;
        case "dispatch fails over a broken worker pipe" test_sup_failover ] );
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
    ("server.properties", qcheck_cases) ]
