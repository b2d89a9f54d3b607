(* Fault-injection tests for the durability layer (Mdqa_store).

   The contract under test: whatever happens to the files — truncation
   at any byte, flipped bits, duplicated or foreign records, a crash
   between any two writes — recovery never raises, every recovered
   instance is a well-formed prefix of the chase's own mutation
   sequence, and resuming reaches the same fixpoint (same facts modulo
   the labels of nulls invented after the interruption) as an
   uninterrupted run. *)

open Mdqa_datalog
module R = Mdqa_relational
module Crc32 = Mdqa_store.Crc32
module Binio = Mdqa_store.Binio
module Snapshot = Mdqa_store.Snapshot
module Journal = Mdqa_store.Journal
module Store = Mdqa_store.Store
module Fsck = Mdqa_store.Fsck
module Scrub = Mdqa_store.Scrub

(* --- helpers --------------------------------------------------------- *)

let tmp_store () =
  let path = Filename.temp_file "mdqa_store_test" ".snap" in
  Sys.remove path;
  path

let cleanup path =
  let rm p = if Sys.file_exists p then Sys.remove p in
  List.iter rm
    [ path; path ^ ".journal"; path ^ ".tmp"; path ^ ".1"; path ^ ".2";
      path ^ ".3" ];
  let qdir = Fsck.quarantine_dir path in
  if Sys.file_exists qdir then begin
    Array.iter (fun f -> rm (Filename.concat qdir f)) (Sys.readdir qdir);
    Sys.rmdir qdir
  end;
  if Sys.file_exists (path ^ ".d") then Sys.rmdir (path ^ ".d")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let nasty_strings =
  [ ""; "plain"; "with space"; "comma,semi;colon"; "\"quoted\"";
    "line\nbreak"; "tab\there"; "nul\000byte"; "trailing\r\n"; "⊥";
    "⊥7 looks like a null"; String.make 300 'x' ]

let nasty_values =
  List.map R.Value.sym nasty_strings
  @ [ R.Value.int 0; R.Value.int 1; R.Value.int (-1); R.Value.int max_int;
      R.Value.int min_int; R.Value.real 0.; R.Value.real (-0.);
      R.Value.real 3.14159; R.Value.real 1e-300; R.Value.real infinity;
      R.Value.real neg_infinity; R.Value.Null 0; R.Value.Null 42;
      R.Value.Null 999999 ]

let mk_instance rels =
  let inst = R.Instance.create () in
  List.iter
    (fun (name, arity, tuples) ->
      ignore
        (R.Instance.declare inst
           (R.Rel_schema.of_names name (List.init arity (Printf.sprintf "c%d"))));
      List.iter
        (fun t -> ignore (R.Instance.add_tuple inst name (R.Tuple.of_list t)))
        tuples)
    rels;
  inst

let nasty_instance () =
  mk_instance
    [ ("empty_rel", 2, []);
      ("vals", 1, List.map (fun v -> [ v ]) nasty_values);
      ( "pairs", 3,
        [ [ R.Value.sym "a"; R.Value.Null 3; R.Value.int 7 ];
          [ R.Value.sym "nul\000"; R.Value.Null 3; R.Value.real nan ] ] ) ]

let stats_of (a, b, c, d, e) =
  { Chase.rounds = a; tgd_fires = b; triggers_checked = c; nulls_created = d;
    egd_merges = e }

let check_instance_equal what a b =
  Alcotest.(check bool) what true (R.Instance.equal a b)

(* Equality modulo the labels of nulls: rename by first appearance in
   the (deterministic) fact order, then compare; fall back to
   hom-equivalence for genuinely isomorphic-but-reordered images. *)
let normalize_nulls inst =
  let inst = R.Instance.copy inst in
  let mapping = Hashtbl.create 16 in
  let next = ref 0 in
  R.Instance.iter_facts
    (fun _ t ->
      List.iter
        (function
          | R.Value.Null k ->
            if not (Hashtbl.mem mapping k) then begin
              Hashtbl.add mapping k !next;
              incr next
            end
          | _ -> ())
        (R.Tuple.to_list t))
    inst;
  ignore
    (R.Instance.substitute inst
       (Hashtbl.fold
          (fun k k' m -> R.Value.Map.add (R.Value.Null k) (R.Value.Null k') m)
          mapping R.Value.Map.empty));
  inst

let equivalent a b =
  R.Instance.equal a b
  || R.Instance.equal (normalize_nulls a) (normalize_nulls b)
  || Core_inst.hom_equivalent a b

(* --- crc32 ----------------------------------------------------------- *)

let test_crc32_vectors () =
  (* CRC-32/ISO-HDLC check value *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.digest "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.digest "");
  Alcotest.(check int) "pos/len window" (Crc32.digest "456")
    (Crc32.digest ~pos:3 ~len:3 "123456789")

let test_crc32_sensitivity () =
  let s = "the quick brown fox" in
  let base = Crc32.digest s in
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Alcotest.(check bool)
        (Printf.sprintf "flip at %d changes digest" i)
        true
        (Crc32.digest (Bytes.to_string b) <> base))
    s

(* --- binio ----------------------------------------------------------- *)

let roundtrip_instance inst =
  let b = Buffer.create 256 in
  Binio.instance b inst;
  let s = Buffer.contents b in
  let r = Binio.reader s in
  let back = Binio.read_instance r in
  Alcotest.(check bool) "reader consumed everything" true (Binio.at_end r);
  check_instance_equal "instance round-trips" inst back;
  s

let test_binio_roundtrip () = ignore (roundtrip_instance (nasty_instance ()))

let test_binio_truncation () =
  let s = roundtrip_instance (nasty_instance ()) in
  for len = 0 to String.length s - 1 do
    match Binio.read_instance (Binio.reader (String.sub s 0 len)) with
    | _ ->
      Alcotest.failf "prefix of %d/%d bytes decoded as a full instance" len
        (String.length s)
    | exception Binio.Corrupt _ -> ()
  done

let gen_value =
  QCheck.Gen.(
    frequency
      [ (4, map R.Value.sym (oneofl nasty_strings));
        (2, map R.Value.sym string_printable);
        (2, map R.Value.int int);
        (1, map R.Value.real (oneofl [ 0.; -1.5; 2.75e10; 1e-30 ]));
        (2, map (fun k -> R.Value.Null k) (int_bound 1000)) ])

let gen_instance =
  QCheck.Gen.(
    let* nrels = int_range 1 3 in
    let rel i =
      let* arity = int_range 1 3 in
      let* ntuples = int_bound 6 in
      let+ tuples = list_size (return ntuples) (list_size (return arity) gen_value) in
      (Printf.sprintf "r%d" i, arity, tuples)
    in
    let+ rels = flatten_l (List.init nrels rel) in
    mk_instance rels)

let instance_arb =
  QCheck.make ~print:(Format.asprintf "%a" R.Instance.pp) gen_instance

let test_binio_qcheck =
  QCheck.Test.make ~name:"binio instance round-trip" ~count:200 instance_arb
    (fun inst ->
      let b = Buffer.create 256 in
      Binio.instance b inst;
      let back = Binio.read_instance (Binio.reader (Buffer.contents b)) in
      R.Instance.equal inst back)

(* --- snapshot -------------------------------------------------------- *)

let nasty_snapshot () =
  { Snapshot.program_text = "p(X) :- q(X).\n% with ⊥ and \000 bytes";
    variant = Chase.Restricted;
    instance = nasty_instance ();
    null_base = 1000000;
    stats = stats_of (3, 14, 159, 26, 5);
    frontier =
      Some
        [ ("vals", [ R.Tuple.of_list [ R.Value.Null 3 ] ]);
          ("empty_rel", []) ] }

let check_snapshot_equal (a : Snapshot.t) (b : Snapshot.t) =
  Alcotest.(check string) "program text" a.program_text b.program_text;
  Alcotest.(check bool) "variant" true (a.variant = b.variant);
  check_instance_equal "instance" a.instance b.instance;
  Alcotest.(check int) "null base" a.null_base b.null_base;
  Alcotest.(check bool) "stats" true (a.stats = b.stats);
  Alcotest.(check bool) "frontier" true (a.frontier = b.frontier)

let test_snapshot_roundtrip () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let snap = nasty_snapshot () in
  let bytes = Snapshot.write ~path snap in
  Alcotest.(check bool) "reported size matches file" true
    (bytes = String.length (read_file path));
  Alcotest.(check bool) "no temp file left" false
    (Sys.file_exists (path ^ ".tmp"));
  match Snapshot.read ~path with
  | Error c -> Alcotest.failf "clean snapshot rejected: %s" c.Snapshot.reason
  | Ok back -> check_snapshot_equal snap back

let test_snapshot_qcheck =
  QCheck.Test.make ~name:"snapshot round-trip on random instances" ~count:60
    instance_arb (fun inst ->
      let path = tmp_store () in
      Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
      let snap =
        { Snapshot.program_text = "t(X,Y) :- e(X,Y)."; variant = Chase.Oblivious;
          instance = inst; null_base = 7; stats = stats_of (1, 2, 3, 4, 5);
          frontier = None }
      in
      ignore (Snapshot.write ~path snap);
      match Snapshot.read ~path with
      | Ok back -> R.Instance.equal inst back.Snapshot.instance
      | Error _ -> false)

let test_snapshot_truncation_sweep () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  ignore (Snapshot.write ~path (nasty_snapshot ()));
  let image = read_file path in
  for len = 0 to String.length image - 1 do
    write_file path (String.sub image 0 len);
    match Snapshot.read ~path with
    | Ok _ ->
      Alcotest.failf "truncation to %d/%d bytes accepted" len
        (String.length image)
    | Error _ -> ()
    | exception e ->
      Alcotest.failf "truncation to %d bytes raised %s" len
        (Printexc.to_string e)
  done

let test_snapshot_bitflip_sweep () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let snap = nasty_snapshot () in
  ignore (Snapshot.write ~path snap);
  let image = read_file path in
  String.iteri
    (fun i c ->
      List.iter
        (fun bit ->
          let b = Bytes.of_string image in
          Bytes.set b i (Char.chr (Char.code c lxor (1 lsl bit)));
          write_file path (Bytes.to_string b);
          match Snapshot.read ~path with
          | Error _ -> ()
          | Ok back ->
            (* a flip the checksums cannot see must at least leave the
               image semantically intact (e.g. a bit of a CRC that the
               also-flipped payload recomputes — impossible for single
               flips, so really: fail loudly) *)
            check_snapshot_equal snap back;
            Alcotest.failf "bit %d of byte %d accepted undetected" bit i
          | exception e ->
            Alcotest.failf "bit %d of byte %d raised %s" bit i
              (Printexc.to_string e))
        [ 0; 7 ])
    image

(* --- journal --------------------------------------------------------- *)

let sample_records =
  [ Journal.Fact ("vals", R.Tuple.of_list [ R.Value.sym "nul\000"; R.Value.Null 3 ]);
    Journal.Fact ("vals", R.Tuple.of_list [ R.Value.int min_int; R.Value.real 1e300 ]);
    Journal.Merge { from_ = R.Value.Null 3; into = R.Value.Null 1 };
    Journal.Round { merged = true; stats = stats_of (1, 2, 3, 4, 5) };
    Journal.Fact ("t", R.Tuple.of_list [ R.Value.sym "a"; R.Value.sym "b" ]);
    Journal.Round { merged = false; stats = stats_of (2, 3, 4, 5, 6) } ]

let write_journal path records =
  let w = Journal.create ~path in
  List.iter (fun r -> ignore (Journal.append w r)) records;
  Journal.close w

let test_journal_roundtrip () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  write_journal path sample_records;
  let r = Journal.read ~path in
  Alcotest.(check bool) "no truncation" true (r.Journal.truncation = None);
  Alcotest.(check bool) "records round-trip" true
    (List.map snd r.Journal.records = sample_records);
  Alcotest.(check int) "valid_bytes covers the file"
    (String.length (read_file path)) r.Journal.valid_bytes

let test_journal_truncation_sweep () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  write_journal path sample_records;
  let image = read_file path in
  for len = 0 to String.length image - 1 do
    write_file path (String.sub image 0 len);
    match Journal.read ~path with
    | r ->
      let got = List.map snd r.Journal.records in
      let is_prefix =
        List.length got <= List.length sample_records
        && got
           = List.filteri
               (fun i _ -> i < List.length got)
               sample_records
      in
      Alcotest.(check bool)
        (Printf.sprintf "prefix property at %d bytes" len)
        true is_prefix
    | exception e ->
      Alcotest.failf "journal truncated to %d bytes raised %s" len
        (Printexc.to_string e)
  done

let test_journal_bitflip_sweep () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  write_journal path sample_records;
  let image = read_file path in
  let original = (Journal.read ~path).Journal.records in
  String.iteri
    (fun i c ->
      let b = Bytes.of_string image in
      Bytes.set b i (Char.chr (Char.code c lxor 0x10));
      write_file path (Bytes.to_string b);
      match Journal.read ~path with
      | r ->
        (* whatever survives must be a verbatim prefix of the original
           record sequence — a flip can only truncate, never alter *)
        let rec is_prefix got orig =
          match (got, orig) with
          | [], _ -> true
          | (go, gr) :: gt, (oo, orr) :: ot ->
            go = oo && gr = orr && is_prefix gt ot
          | _ :: _, [] -> false
        in
        Alcotest.(check bool)
          (Printf.sprintf "prefix property after flip at byte %d" i)
          true
          (is_prefix r.Journal.records original)
      | exception e ->
        Alcotest.failf "flip at byte %d raised %s" i (Printexc.to_string e))
    image

(* --- store: checkpoint / crash / resume ------------------------------ *)

(* Existentials, null-merging EGD, recursion: every kind of journal
   record shows up, and interruptions at different points leave nulls,
   merges and frontiers in flight. *)
let program_text =
  String.concat "\n"
    [ "e(1, 2). e(2, 3). e(3, 4). e(4, 5).";
      "t(X, Y) :- e(X, Y).";
      "t(X, Z) :- t(X, Y), e(Y, Z).";
      "a(tom). a(ann).";
      "p(X, Y) :- a(X).";
      "q(X, Y) :- a(X).";
      "Y1 = Y2 :- p(X, Y1), q(X, Y2)."; "" ]

let parse text = (Parser.parse_string text).Parser.program

let full_chase ?(text = program_text) () =
  let program = parse text in
  Chase.run program (Program.instance_of_facts program)

exception Crash

(* A checkpoint that behaves like the process dying: the store's own
   hooks run for a while, then the world stops — no on_done, no final
   snapshot, possibly mid-round. *)
let crashing_checkpoint store ~after_facts =
  let inner = Store.checkpoint store in
  let seen = ref 0 in
  { inner with
    Chase.on_fact =
      (fun pred t ->
        if !seen >= after_facts then raise Crash;
        incr seen;
        inner.Chase.on_fact pred t);
    on_done = (fun ~instance:_ _ _ -> ()) }

let resume_to_completion path =
  match Store.resume ~path () with
  | Error e ->
    Alcotest.failf "resume failed: %s"
      (Format.asprintf "%a" Store.pp_load_error e)
  | Ok (r, recovery) -> (r, recovery)

let check_resumed_matches_full what (r : Chase.result) =
  let full = full_chase () in
  Alcotest.(check bool) (what ^ ": saturates") true
    (r.Chase.outcome = Chase.Saturated);
  Alcotest.(check bool)
    (what ^ ": same instance modulo null labels")
    true
    (equivalent full.Chase.instance r.Chase.instance)

let test_resume_after_guard_interrupt () =
  let program = parse program_text in
  for k = 1 to 24 do
    let path = tmp_store () in
    Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
    let guard = Guard.create ~max_steps:k () in
    let store =
      Store.create ~guard ~path ~program_text ~variant:Chase.Restricted ()
    in
    let r =
      Chase.run ~guard ~checkpoint:(Store.checkpoint store) program
        (Program.instance_of_facts program)
    in
    Alcotest.(check bool)
      (Printf.sprintf "no write error at k=%d" k)
      true
      (Store.write_error store = None);
    match r.Chase.outcome with
    | Chase.Failed _ -> Alcotest.failf "unexpected failure at k=%d" k
    | Chase.Saturated | Chase.Out_of_budget _ ->
      let resumed, recovery = resume_to_completion path in
      Alcotest.(check bool)
        (Printf.sprintf "clean journal at k=%d" k)
        true
        (recovery.Store.journal_truncation = None);
      check_resumed_matches_full (Printf.sprintf "k=%d" k) resumed
  done

let test_resume_after_crash () =
  for n = 1 to 16 do
    let path = tmp_store () in
    Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
    let program = parse program_text in
    let store =
      Store.create ~path ~program_text ~variant:Chase.Restricted ()
    in
    (match
       Chase.run
         ~checkpoint:(crashing_checkpoint store ~after_facts:n)
         program
         (Program.instance_of_facts program)
     with
    | _ -> ()  (* chase finished before the crash point *)
    | exception Crash -> Store.close store);
    let resumed, _ = resume_to_completion path in
    check_resumed_matches_full (Printf.sprintf "crash after %d facts" n)
      resumed
  done

let test_resume_of_resume () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let program = parse program_text in
  let guard = Guard.create ~max_steps:4 () in
  let store =
    Store.create ~guard ~path ~program_text ~variant:Chase.Restricted ()
  in
  ignore
    (Chase.run ~guard ~checkpoint:(Store.checkpoint store) program
       (Program.instance_of_facts program));
  (* first resume: also interrupted *)
  (match Store.resume ~guard:(Guard.create ~max_steps:4 ()) ~path () with
  | Error e -> Alcotest.failf "first resume: %s" (Format.asprintf "%a" Store.pp_load_error e)
  | Ok _ -> ());
  let resumed, _ = resume_to_completion path in
  check_resumed_matches_full "resume of resume" resumed

let test_resume_reaches_same_failure () =
  let text = program_text ^ "! :- t(1, 5).\n" in
  let program = parse text in
  let full = Chase.run program (Program.instance_of_facts program) in
  (match full.Chase.outcome with
  | Chase.Failed _ -> ()
  | _ -> Alcotest.fail "expected the full chase to fail its NC");
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let guard = Guard.create ~max_steps:5 () in
  let store =
    Store.create ~guard ~path ~program_text:text ~variant:Chase.Restricted ()
  in
  ignore
    (Chase.run ~guard ~checkpoint:(Store.checkpoint store) program
       (Program.instance_of_facts program));
  let resumed, _ = resume_to_completion path in
  Alcotest.(check bool) "resumed run fails the same NC" true
    (match resumed.Chase.outcome with Chase.Failed _ -> true | _ -> false)

let test_fresh_nulls_not_reused () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let program = parse program_text in
  let guard = Guard.create ~max_steps:6 () in
  let store =
    Store.create ~guard ~path ~program_text ~variant:Chase.Restricted ()
  in
  ignore
    (Chase.run ~guard ~checkpoint:(Store.checkpoint store) program
       (Program.instance_of_facts program));
  match Store.load ~path with
  | Error e ->
    Alcotest.failf "load: %s" (Format.asprintf "%a" Store.pp_load_error e)
  | Ok recovery ->
    let nulls_of inst =
      let s = ref [] in
      R.Instance.iter_facts
        (fun _ t ->
          List.iter
            (function
              | R.Value.Null k -> if not (List.mem k !s) then s := k :: !s
              | _ -> ())
            (R.Tuple.to_list t))
        inst;
      !s
    in
    let recovered = nulls_of recovery.Store.instance in
    let resumed, _ = resume_to_completion path in
    (* every null the resumed run invented (i.e. not present in the
       recovered image) carries a label >= the recovered base: labels
       from the interrupted run, even merged-away ones, are never
       re-issued *)
    List.iter
      (fun k ->
        if not (List.mem k recovered) then
          Alcotest.(check bool)
            (Printf.sprintf "fresh null %d respects base %d" k
               recovery.Store.null_base)
            true
            (k >= recovery.Store.null_base))
      (nulls_of resumed.Chase.instance)

(* --- store: replay edge cases ---------------------------------------- *)

let completed_store () =
  let path = tmp_store () in
  let program = parse program_text in
  let store =
    Store.create ~path ~program_text ~variant:Chase.Restricted ()
  in
  let r =
    Chase.run ~checkpoint:(Store.checkpoint store) program
      (Program.instance_of_facts program)
  in
  Alcotest.(check bool) "setup chase saturates" true
    (r.Chase.outcome = Chase.Saturated);
  (path, r)

let test_replay_tolerates_duplicates () =
  let path, r = completed_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  (* crash-inside-compaction: the snapshot already holds these facts,
     the (not yet truncated) journal repeats them *)
  let dups =
    [ Journal.Fact ("t", R.Tuple.of_list [ R.Value.int 1; R.Value.int 2 ]);
      Journal.Fact ("t", R.Tuple.of_list [ R.Value.int 1; R.Value.int 2 ]);
      Journal.Fact ("e", R.Tuple.of_list [ R.Value.int 1; R.Value.int 2 ]) ]
  in
  write_journal (Store.journal_path path) dups;
  match Store.load ~path with
  | Error e -> Alcotest.failf "load: %s" (Format.asprintf "%a" Store.pp_load_error e)
  | Ok recovery ->
    Alcotest.(check int) "all duplicates replayed" (List.length dups)
      recovery.Store.replayed;
    Alcotest.(check bool) "no truncation" true
      (recovery.Store.journal_truncation = None);
    check_instance_equal "instance unchanged by duplicates"
      r.Chase.instance recovery.Store.instance

let test_replay_stops_at_foreign_record () =
  let path, r = completed_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  write_journal (Store.journal_path path)
    [ Journal.Fact ("e", R.Tuple.of_list [ R.Value.int 9; R.Value.int 10 ]);
      Journal.Fact ("no_such_predicate", R.Tuple.of_list [ R.Value.int 1 ]);
      Journal.Fact ("e", R.Tuple.of_list [ R.Value.int 10; R.Value.int 11 ]) ];
  match Store.load ~path with
  | Error e -> Alcotest.failf "load: %s" (Format.asprintf "%a" Store.pp_load_error e)
  | Ok recovery ->
    Alcotest.(check int) "replay stopped after the valid prefix" 1
      recovery.Store.replayed;
    Alcotest.(check bool) "truncation reported" true
      (recovery.Store.journal_truncation <> None);
    Alcotest.(check bool) "prefix fact applied" true
      (R.Instance.total_tuples recovery.Store.instance
      = R.Instance.total_tuples r.Chase.instance + 1)

let test_replay_arity_mismatch () =
  let path, _ = completed_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  write_journal (Store.journal_path path)
    [ Journal.Fact ("e", R.Tuple.of_list [ R.Value.int 1 ]) ];
  match Store.load ~path with
  | Error e -> Alcotest.failf "load: %s" (Format.asprintf "%a" Store.pp_load_error e)
  | Ok recovery ->
    Alcotest.(check int) "nothing replayed" 0 recovery.Store.replayed;
    Alcotest.(check bool) "truncation reported" true
      (recovery.Store.journal_truncation <> None)

let test_crash_mid_rename () =
  let path, r = completed_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  (* a temp file from a writer that died before its rename *)
  write_file (path ^ ".tmp") "garbage from a dead writer \000\001\002";
  (match Store.load ~path with
  | Error e -> Alcotest.failf "load: %s" (Format.asprintf "%a" Store.pp_load_error e)
  | Ok recovery ->
    check_instance_equal "stale tmp ignored" r.Chase.instance
      recovery.Store.instance);
  let rep = Fsck.check ~path in
  Alcotest.(check bool) "H052 hint for the stale temp" true
    (List.exists (fun d -> d.Diag.code = "H052") rep.Fsck.diags)

let test_missing_store () =
  match Store.load ~path:"/nonexistent/dir/nothing.snap" with
  | Error (Store.No_store _) -> ()
  | Error e ->
    Alcotest.failf "expected No_store, got %s"
      (Format.asprintf "%a" Store.pp_load_error e)
  | Ok _ -> Alcotest.fail "load of a missing store succeeded"

let test_verify_clean_and_corrupt () =
  let path, _ = completed_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let rep = Fsck.check ~path in
  Alcotest.(check (list string)) "clean store has no diagnostics" []
    (List.map (fun d -> d.Diag.code) rep.Fsck.diags);
  Alcotest.(check bool) "summary lines present" true (rep.Fsck.infos <> []);
  Alcotest.(check int) "clean store exits 0" 0 (Fsck.exit_code rep);
  (* corrupt one payload byte: with a clean previous generation on disk
     the store is salvageable (exit 2), not fatal *)
  let image = read_file path in
  let b = Bytes.of_string image in
  Bytes.set b (Bytes.length b - 5)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b - 5)) lxor 0xFF));
  write_file path (Bytes.to_string b);
  let rep = Fsck.check ~path in
  Alcotest.(check bool) "salvageable via a generation" true
    (rep.Fsck.status = Fsck.Salvageable);
  Alcotest.(check bool) "W051 names the clean generation" true
    (List.exists (fun d -> d.Diag.code = "W051") rep.Fsck.diags);
  Alcotest.(check int) "salvageable store exits 2" 2 (Fsck.exit_code rep);
  (* strip the generation chain: now nothing local can save it *)
  List.iter
    (fun g -> if Sys.file_exists g then Sys.remove g)
    [ Store.generation_path path 1; Store.generation_path path 2 ];
  let rep = Fsck.check ~path in
  Alcotest.(check bool) "E023 on corruption" true
    (List.exists (fun d -> d.Diag.code = "E023") rep.Fsck.diags);
  Alcotest.(check bool) "E032 once unrepairable" true
    (List.exists (fun d -> d.Diag.code = "E032") rep.Fsck.diags);
  Alcotest.(check int) "unrepairable store exits 1" 1 (Fsck.exit_code rep)

(* --- fsck: the salvage chain ----------------------------------------- *)

let flip_byte path off =
  let b = Bytes.of_string (read_file path) in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
  write_file path (Bytes.to_string b)

(* after a repair: the store must verify clean and, once resumed, reach
   the same fixpoint as an undamaged run (no data invented, none lost
   beyond what the salvage stage documented) *)
let check_repaired_store ~stage path =
  let post = Fsck.check ~path in
  if post.Fsck.status <> Fsck.Clean then
    Alcotest.failf "%s: repaired store does not verify clean" stage;
  let resumed, _ = resume_to_completion path in
  check_resumed_matches_full (stage ^ ": fixpoint after repair") resumed

let test_fsck_repair_journal_prefix () =
  let path, _ = completed_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  (* idempotent duplicates followed by a torn/garbage tail: stage 1
     folds the valid prefix into a fresh snapshot and drops the rest *)
  let jpath = Store.journal_path path in
  write_journal jpath
    [ Journal.Fact ("t", R.Tuple.of_list [ R.Value.int 1; R.Value.int 2 ]);
      Journal.Fact ("e", R.Tuple.of_list [ R.Value.int 1; R.Value.int 2 ]) ];
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 jpath in
  output_string oc "\xde\xad\xbe\xef garbage from a torn write";
  close_out oc;
  let pre = Fsck.check ~path in
  Alcotest.(check bool) "damaged journal is salvageable" true
    (pre.Fsck.status = Fsck.Salvageable);
  let rep = Fsck.repair ~path () in
  Alcotest.(check bool) "repair reports success" true rep.Fsck.repaired;
  Alcotest.(check bool) "damaged journal quarantined" true
    (List.exists
       (fun q -> String.length q > 0 && Sys.file_exists q)
       rep.Fsck.quarantined);
  Alcotest.(check bool) "W052 reports the dropped bytes" true
    (List.exists (fun d -> d.Diag.code = "W052") rep.Fsck.diags);
  Alcotest.(check bool) "H056 points at the quarantine" true
    (List.exists (fun d -> d.Diag.code = "H056") rep.Fsck.diags);
  check_repaired_store ~stage:"journal-prefix" path

(* the satellite sweep: flip (or truncate at) every byte of the current
   snapshot; fsck --repair must hand back a verify-accepted store whose
   resumed fixpoint matches the pre-corruption ground truth (here via
   the generation stage — the journal-prefix stage is exercised above) *)
let test_fsck_bitflip_repair_sweep () =
  let path, _ = completed_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let gen1 = Store.generation_path path 1 in
  let jpath = Store.journal_path path in
  Alcotest.(check bool) "setup left a previous generation" true
    (Sys.file_exists gen1);
  let pristine = read_file path in
  let pristine_gen = read_file gen1 in
  let pristine_journal = read_file jpath in
  let restore () =
    write_file path pristine;
    write_file gen1 pristine_gen;
    write_file jpath pristine_journal;
    let qdir = Fsck.quarantine_dir path in
    if Sys.file_exists qdir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat qdir f))
        (Sys.readdir qdir)
  in
  let repair_and_check ~what off =
    let rep = Fsck.repair ~path () in
    if not rep.Fsck.repaired then
      Alcotest.failf "%s at byte %d not repaired (status %s)" what off
        (Fsck.status_name rep.Fsck.status);
    (* a full resume per offset would dominate the suite's runtime:
       spot-check the recovered fixpoint end-to-end on a stride, and
       rely on the cheap re-verify for every other offset *)
    if off mod 17 = 0 then
      check_repaired_store ~stage:(Printf.sprintf "%s at %d" what off) path
    else
      let post = Fsck.check ~path in
      if post.Fsck.status <> Fsck.Clean then
        Alcotest.failf "%s at byte %d: repaired store not clean" what off
  in
  for off = 0 to String.length pristine - 1 do
    restore ();
    flip_byte path off;
    repair_and_check ~what:"flip" off
  done;
  for len = 0 to String.length pristine - 1 do
    restore ();
    write_file path (String.sub pristine 0 len);
    repair_and_check ~what:"truncation" len
  done;
  restore ()

let test_fsck_unrepairable_untouched () =
  let path, _ = completed_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  List.iter
    (fun g -> if Sys.file_exists g then Sys.remove g)
    [ Store.generation_path path 1; Store.generation_path path 2 ];
  flip_byte path 4 (* magic byte of the only image: Bad_header *);
  let damaged = read_file path in
  let rep = Fsck.repair ~path () in
  Alcotest.(check bool) "not repaired" false rep.Fsck.repaired;
  Alcotest.(check bool) "unrepairable status" true
    (rep.Fsck.status = Fsck.Unrepairable);
  Alcotest.(check bool) "E032 reported" true
    (List.exists (fun d -> d.Diag.code = "E032") rep.Fsck.diags);
  Alcotest.(check int) "exits 1" 1 (Fsck.exit_code rep);
  (* never destroy evidence: without a peer the damaged bytes stay put *)
  Alcotest.(check bool) "damaged original untouched" true
    (read_file path = damaged);
  Alcotest.(check bool) "nothing quarantined" false
    (Sys.file_exists (Fsck.quarantine_dir path))

let test_fsck_repair_idempotent =
  QCheck.Test.make ~name:"fsck repair is idempotent" ~count:25
    QCheck.(pair bool small_nat)
    (fun (hit_journal, off) ->
      let path, _ = completed_store () in
      Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
      let target = if hit_journal then Store.journal_path path else path in
      let image = read_file target in
      flip_byte target (off mod max 1 (String.length image));
      let r1 = Fsck.repair ~path () in
      let snap1 = read_file path in
      let jrnl1 = read_file (Store.journal_path path) in
      let r2 = Fsck.repair ~path () in
      r1.Fsck.repaired
      && (not r2.Fsck.repaired) (* nothing left to repair *)
      && r2.Fsck.status = Fsck.Clean
      && read_file path = snap1
      && read_file (Store.journal_path path) = jrnl1)

let test_fsck_failed_resync_restores_originals () =
  let path, _ = completed_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  List.iter
    (fun g -> if Sys.file_exists g then Sys.remove g)
    [ Store.generation_path path 1; Store.generation_path path 2 ];
  flip_byte path 4 (* Bad_header, no generations: only stage 3 applies *);
  let jpath = Store.journal_path path in
  let damaged = read_file path in
  let journal = read_file jpath in
  let called = ref false in
  let rep =
    Fsck.repair
      ~resync:(fun () ->
        called := true;
        Error "peer down")
      ~path ()
  in
  Alcotest.(check bool) "resync was attempted" true !called;
  Alcotest.(check bool) "still unrepairable" true
    (rep.Fsck.status = Fsck.Unrepairable);
  (* the failed sync must not leave the store emptied into quarantine *)
  Alcotest.(check bool) "damaged snapshot restored byte-identical" true
    (Sys.file_exists path && read_file path = damaged);
  Alcotest.(check bool) "journal restored byte-identical" true
    (Sys.file_exists jpath && read_file jpath = journal);
  Alcotest.(check (list string)) "nothing reported quarantined" []
    rep.Fsck.quarantined;
  let qdir = Fsck.quarantine_dir path in
  Alcotest.(check bool) "quarantine holds no files" true
    ((not (Sys.file_exists qdir)) || Array.length (Sys.readdir qdir) = 0)

let test_fsck_bad_program_salvaged () =
  let path, _ = completed_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  (* a validly-encoded image whose program text no longer parses: the
     section CRCs cannot catch it, check must — and route it to the
     generation stage instead of calling it a mid-check race *)
  let snap = Result.get_ok (Snapshot.read ~path) in
  ignore
    (Snapshot.write ~path
       { snap with Snapshot.program_text = "this is not a datalog program ((" });
  let rep = Fsck.check ~path in
  Alcotest.(check bool) "salvageable via a generation" true
    (rep.Fsck.status = Fsck.Salvageable);
  Alcotest.(check bool) "damage kind is bad-program" true
    (List.exists (fun d -> d.Fsck.kind = Fsck.Bad_program) rep.Fsck.damage);
  let r = Fsck.repair ~path () in
  Alcotest.(check bool) "repaired from the generation" true r.Fsck.repaired;
  check_repaired_store ~stage:"bad-program" path

let test_scrub_clean_then_corrupt () =
  let path, _ = completed_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let s = Scrub.create ~budget:512 ~path () in
  Fun.protect ~finally:(fun () -> Scrub.close s) @@ fun () ->
  let spin_until_cycles ~expect_clean target =
    let found = ref 0 in
    let guard = ref 0 in
    while Scrub.cycles s < target && !guard < 100_000 do
      incr guard;
      let fs = Scrub.tick s in
      found := !found + List.length fs;
      if expect_clean && fs <> [] then
        Alcotest.failf "clean store produced a finding: %s"
          (Format.asprintf "%a" Scrub.pp_finding (List.hd fs))
    done;
    Alcotest.(check bool) "scrub cycles advance" true (Scrub.cycles s >= target);
    !found
  in
  ignore (spin_until_cycles ~expect_clean:true 2);
  Alcotest.(check bool) "bytes were scrubbed" true (Scrub.bytes_scrubbed s > 0);
  Alcotest.(check int) "no errors on a clean store" 0 (Scrub.errors_found s);
  (* one flipped payload byte: detected, and deduplicated across the
     following cycles — one fault, one finding *)
  flip_byte path (String.length (read_file path) - 5);
  let found = spin_until_cycles ~expect_clean:false 6 in
  Alcotest.(check int) "one corrupt byte, one finding" 1 found;
  Alcotest.(check int) "errors counter matches" 1 (Scrub.errors_found s)

(* serve closes the scrubber right after a repair rewrites the files
   under it, usually mid-walk on any store bigger than one tick's
   budget: the next tick must start a fresh cycle, not raise *)
let test_scrub_close_mid_walk_restarts () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let big =
    mk_instance
      [ ( "big", 1,
          List.init 64 (fun i ->
              [ R.Value.sym (String.make 100 'x' ^ string_of_int i) ]) ) ]
  in
  ignore
    (Snapshot.write ~path
       { Snapshot.program_text = "e(1,2)."; variant = Chase.Restricted;
         instance = big; null_base = 0; stats = stats_of (0, 0, 0, 0, 0);
         frontier = None });
  let s = Scrub.create ~budget:512 ~path () in
  Fun.protect ~finally:(fun () -> Scrub.close s) @@ fun () ->
  ignore (Scrub.tick s);
  Alcotest.(check int) "one tick leaves the walk mid-cycle" 0 (Scrub.cycles s);
  Scrub.close s;
  let guard = ref 0 in
  while Scrub.cycles s < 1 && !guard < 100_000 do
    incr guard;
    match Scrub.tick s with
    | [] -> ()
    | f :: _ ->
      Alcotest.failf "clean store produced a finding after close: %s"
        (Format.asprintf "%a" Scrub.pp_finding f)
  done;
  Alcotest.(check bool) "cycle completes after a mid-walk close" true
    (Scrub.cycles s >= 1);
  Alcotest.(check int) "no errors on a clean store" 0 (Scrub.errors_found s)

let test_checkpoint_bytes_accounted () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let program = parse program_text in
  let guard = Guard.create () in
  let store =
    Store.create ~guard ~path ~program_text ~variant:Chase.Restricted ()
  in
  ignore
    (Chase.run ~guard ~checkpoint:(Store.checkpoint store) program
       (Program.instance_of_facts program));
  let c = Guard.consumption guard in
  Alcotest.(check bool) "checkpoint bytes counted" true
    (c.Guard.checkpoint_bytes > 0)

let test_checkpoint_byte_budget_degrades () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let program = parse program_text in
  let guard = Guard.create ~max_checkpoint_bytes:64 () in
  let store =
    Store.create ~guard ~path ~program_text ~variant:Chase.Restricted ()
  in
  let r =
    Chase.run ~guard ~checkpoint:(Store.checkpoint store) program
      (Program.instance_of_facts program)
  in
  (match r.Chase.outcome with
  | Chase.Out_of_budget e ->
    Alcotest.(check string) "tripped on checkpoint bytes" "checkpoint bytes"
      (Guard.resource_name e.Guard.resource)
  | _ -> Alcotest.fail "expected an Out_of_budget outcome");
  (* the budget-tripped store is still resumable (without the budget) *)
  let resumed, _ = resume_to_completion path in
  check_resumed_matches_full "after byte-budget trip" resumed

(* --- suites ---------------------------------------------------------- *)

let qcheck = List.map QCheck_alcotest.to_alcotest

let suites =
  [ ( "store.codec",
      [ Alcotest.test_case "crc32 known vectors" `Quick test_crc32_vectors;
        Alcotest.test_case "crc32 flips any bit" `Quick test_crc32_sensitivity;
        Alcotest.test_case "binio round-trip (nasty values)" `Quick
          test_binio_roundtrip;
        Alcotest.test_case "binio rejects every truncation" `Quick
          test_binio_truncation ]
      @ qcheck [ test_binio_qcheck ] );
    ( "store.snapshot",
      [ Alcotest.test_case "round-trip" `Quick test_snapshot_roundtrip;
        Alcotest.test_case "truncation sweep (every prefix)" `Quick
          test_snapshot_truncation_sweep;
        Alcotest.test_case "bit-flip sweep" `Slow test_snapshot_bitflip_sweep ]
      @ qcheck [ test_snapshot_qcheck ] );
    ( "store.journal",
      [ Alcotest.test_case "round-trip" `Quick test_journal_roundtrip;
        Alcotest.test_case "truncation sweep (every byte)" `Quick
          test_journal_truncation_sweep;
        Alcotest.test_case "bit-flip sweep never raises" `Quick
          test_journal_bitflip_sweep ] );
    ( "store.resume",
      [ Alcotest.test_case "guard interrupt at every step budget" `Quick
          test_resume_after_guard_interrupt;
        Alcotest.test_case "crash after every fact count" `Quick
          test_resume_after_crash;
        Alcotest.test_case "resume of a resume" `Quick test_resume_of_resume;
        Alcotest.test_case "resume reaches the same failure" `Quick
          test_resume_reaches_same_failure;
        Alcotest.test_case "null labels never reused" `Quick
          test_fresh_nulls_not_reused ] );
    ( "store.recovery",
      [ Alcotest.test_case "replay tolerates duplicate records" `Quick
          test_replay_tolerates_duplicates;
        Alcotest.test_case "replay stops at foreign predicates" `Quick
          test_replay_stops_at_foreign_record;
        Alcotest.test_case "replay stops on arity mismatch" `Quick
          test_replay_arity_mismatch;
        Alcotest.test_case "crash mid-rename leaves store readable" `Quick
          test_crash_mid_rename;
        Alcotest.test_case "missing store is a No_store error" `Quick
          test_missing_store;
        Alcotest.test_case "verify: clean / salvageable / unrepairable" `Quick
          test_verify_clean_and_corrupt ] );
    ( "store.fsck",
      [ Alcotest.test_case "journal-prefix salvage" `Quick
          test_fsck_repair_journal_prefix;
        Alcotest.test_case "repair sweep: every flip and truncation" `Slow
          test_fsck_bitflip_repair_sweep;
        Alcotest.test_case "unrepairable store left untouched" `Quick
          test_fsck_unrepairable_untouched;
        Alcotest.test_case "failed peer re-sync restores the originals" `Quick
          test_fsck_failed_resync_restores_originals;
        Alcotest.test_case "bad program text salvaged via generation" `Quick
          test_fsck_bad_program_salvaged;
        Alcotest.test_case "scrub: clean pass, dedup after damage" `Quick
          test_scrub_clean_then_corrupt;
        Alcotest.test_case "scrub: close mid-walk restarts cleanly" `Quick
          test_scrub_close_mid_walk_restarts ]
      @ qcheck [ test_fsck_repair_idempotent ] );
    ( "store.guard",
      [ Alcotest.test_case "checkpoint bytes are accounted" `Quick
          test_checkpoint_bytes_accounted;
        Alcotest.test_case "checkpoint byte budget degrades the run" `Quick
          test_checkpoint_byte_budget_degrades ] ) ]
