(* Fault-injection and unit tests for the replication plane
   (Mdqa_server.Replication) and client failover.

   The contract under test: a shipped snapshot+journal stream is
   exactly as crash-safe as the local files it copies — truncation at
   any byte and single-bit flips are either rejected (snapshot) or
   truncate to a clean prefix (journal), and any clean prefix installs
   to a store that `mdqa store verify` accepts.  The client, given a
   comma-separated endpoint list, rotates to the next endpoint on the
   dead-endpoint errno signature. *)

open Mdqa_datalog
module R = Mdqa_relational
module Crc32 = Mdqa_store.Crc32
module Snapshot = Mdqa_store.Snapshot
module Journal = Mdqa_store.Journal
module Store = Mdqa_store.Store
module Jsonl = Mdqa_obs.Jsonl
module Backoff = Mdqa_server.Backoff
module Client = Mdqa_server.Client
module Sproto = Mdqa_server.Protocol
module Replication = Mdqa_server.Replication
module Metrics = Mdqa_obs.Metrics

(* --- helpers --------------------------------------------------------- *)

let tmp_store () =
  let path = Filename.temp_file "mdqa_repl_test" ".snap" in
  Sys.remove path;
  path

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".journal"; path ^ ".tmp" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let stats_of (a, b, c, d, e) =
  { Chase.rounds = a; tgd_fires = b; triggers_checked = c; nulls_created = d;
    egd_merges = e }

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

(* A small but representative primary store: a snapshot with nulls and
   an empty relation, plus a journal exercising every record kind. *)
let primary_snapshot () =
  { Snapshot.program_text = "t(X, Y) :- e(X, Y).";
    variant = Chase.Restricted;
    instance =
      mk_instance
        [ ("e", 2,
           [ [ R.Value.int 1; R.Value.int 2 ];
             [ R.Value.sym "a"; R.Value.null 3 ] ]);
          ("t", 2, []) ];
    null_base = 7;
    stats = stats_of (1, 2, 3, 4, 5);
    frontier = None }

let journal_records =
  [ Journal.Fact ("t", R.Tuple.of_list [ R.Value.int 1; R.Value.int 2 ]);
    Journal.Fact ("t", R.Tuple.of_list [ R.Value.sym "a"; R.Value.null 8 ]);
    Journal.Merge { from_ = R.Value.null 8; into = R.Value.null 3 };
    Journal.Round { merged = true; stats = stats_of (2, 4, 6, 8, 10) } ]

(* Writes snapshot + journal files at [path]; returns their raw bytes
   (the shipped stream). *)
let write_primary path =
  ignore (Snapshot.write ~path (primary_snapshot ()));
  let w = Journal.create ~path:(Store.journal_path path) in
  List.iter (fun r -> ignore (Journal.append w r)) journal_records;
  Journal.close w;
  (read_file path, read_file (Store.journal_path path))

let no_corruption_diags path =
  let rep = Mdqa_store.Fsck.check ~path in
  not
    (List.exists
       (fun d -> d.Diag.code = "E023")
       rep.Mdqa_store.Fsck.diags)

(* --- hex codec ------------------------------------------------------- *)

let test_hex_roundtrip () =
  let all = String.init 256 Char.chr in
  List.iter
    (fun s ->
      let h = Replication.to_hex s in
      Alcotest.(check bool)
        "hex is lowercase [0-9a-f]" true
        (String.for_all
           (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
           h);
      match Replication.of_hex h with
      | Ok back -> Alcotest.(check string) "round-trips" s back
      | Error e -> Alcotest.failf "of_hex rejected its own output: %s" e)
    [ ""; "x"; "nul\000byte"; all ];
  (match Replication.of_hex (String.uppercase_ascii (Replication.to_hex all)) with
  | Ok back -> Alcotest.(check string) "uppercase accepted" all back
  | Error e -> Alcotest.failf "uppercase rejected: %s" e);
  (match Replication.of_hex "abc" with
  | Ok _ -> Alcotest.fail "odd length accepted"
  | Error _ -> ());
  match Replication.of_hex "zz" with
  | Ok _ -> Alcotest.fail "non-hex digit accepted"
  | Error _ -> ()

let test_hex_qcheck =
  QCheck.Test.make ~name:"hex codec round-trips arbitrary bytes" ~count:200
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 80) QCheck.Gen.char)
    (fun s ->
      match Replication.of_hex (Replication.to_hex s) with
      | Ok back -> back = s
      | Error _ -> false)

(* --- Source: chunked fetch ------------------------------------------- *)

let field name fields =
  match List.assoc_opt name fields with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %S" name

let num_field name fields =
  match Jsonl.to_num (field name fields) with
  | Some n -> int_of_float n
  | None -> Alcotest.failf "field %S is not a number" name

let data_field fields =
  match Jsonl.to_str (field "data" fields) with
  | Some h -> (
    match Replication.of_hex h with
    | Ok s -> s
    | Error e -> Alcotest.failf "undecodable data field: %s" e)
  | None -> Alcotest.fail "field \"data\" is not a string"

(* Reassemble a whole file through chunked fetches, checking every
   chunk's CRC, exactly as the follower does. *)
let fetch_all src ~what ~epoch =
  let buf = Buffer.create 256 in
  let rec go offset =
    match Replication.Source.fetch src ~what ~offset ~len:7 ~epoch with
    | Error d -> Alcotest.failf "fetch failed: %s" d.Diag.message
    | Ok fields ->
      let data = data_field fields in
      Alcotest.(check int)
        "chunk crc protects decoded bytes" (Crc32.digest data)
        (num_field "crc" fields);
      Buffer.add_string buf data;
      let total = num_field "total" fields in
      if data = "" || offset + String.length data >= total then
        (Buffer.contents buf, num_field "epoch" fields)
      else go (offset + String.length data)
  in
  go 0

let test_source_fetch_reassembly () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let image, journal = write_primary path in
  let src =
    Replication.Source.create ~metrics:(Metrics.create ())
      ~store_path:(Some path)
  in
  let shipped, epoch = fetch_all src ~what:`Snapshot ~epoch:0 in
  Alcotest.(check string) "snapshot ships byte-identically" image shipped;
  Alcotest.(check int) "epoch is the image CRC" (Crc32.digest image) epoch;
  let shipped_j, _ = fetch_all src ~what:`Journal ~epoch in
  Alcotest.(check string) "journal ships byte-identically" journal shipped_j;
  Alcotest.(check int) "hwm is the journal length"
    (String.length journal)
    (Replication.Source.hwm src)

let test_source_stale_epoch_restart () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let image, _ = write_primary path in
  let src =
    Replication.Source.create ~metrics:(Metrics.create ())
      ~store_path:(Some path)
  in
  let stale = Crc32.digest image + 1 in
  match
    Replication.Source.fetch src ~what:`Snapshot ~offset:0 ~len:64
      ~epoch:stale
  with
  | Error d -> Alcotest.failf "stale epoch errored: %s" d.Diag.message
  | Ok fields ->
    Alcotest.(check (option bool))
      "restart:true" (Some true)
      (Jsonl.to_bool (field "restart" fields));
    Alcotest.(check int) "carries the new epoch" (Crc32.digest image)
      (num_field "epoch" fields)

(* A different image of the same size, renamed into place with the same
   mtime: only the inode tells the files apart, and the shipped-image
   cache must notice. *)
let test_source_same_size_replacement () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  ignore (write_primary path);
  Unix.utimes path 1e9 1e9;
  let src =
    Replication.Source.create ~metrics:(Metrics.create ())
      ~store_path:(Some path)
  in
  let epoch () =
    match
      Replication.Source.fetch src ~what:`Snapshot ~offset:0 ~len:7 ~epoch:0
    with
    | Ok fields -> num_field "epoch" fields
    | Error d -> Alcotest.failf "fetch failed: %s" d.Diag.message
  in
  let first = epoch () in
  let next = path ^ ".next" in
  ignore
    (Snapshot.write ~path:next
       { (primary_snapshot ()) with stats = stats_of (1, 2, 3, 4, 6) });
  Alcotest.(check int) "same size" (Unix.stat path).Unix.st_size
    (Unix.stat next).Unix.st_size;
  Unix.utimes next 1e9 1e9;
  Unix.rename next path;
  let image = read_file path in
  Alcotest.(check bool) "a different image" true
    (Crc32.digest image <> first);
  Alcotest.(check int) "epoch follows the new image" (Crc32.digest image)
    (epoch ())

let test_source_no_store_refuses () =
  let src =
    Replication.Source.create ~metrics:(Metrics.create ()) ~store_path:None
  in
  (match
     Replication.Source.fetch src ~what:`Snapshot ~offset:0 ~len:64 ~epoch:0
   with
  | Ok _ -> Alcotest.fail "store-less fetch accepted"
  | Error d -> Alcotest.(check string) "refusal is E031" "E031" d.Diag.code);
  let fields = Replication.Source.status_fields src in
  Alcotest.(check (option bool))
    "shippable:false" (Some false)
    (Jsonl.to_bool (field "shippable" fields))

(* --- shipped-stream fault injection ---------------------------------- *)

let test_ship_snapshot_truncation_sweep () =
  let src_path = tmp_store () and dst = tmp_store () in
  Fun.protect
    ~finally:(fun () ->
      cleanup src_path;
      cleanup dst)
  @@ fun () ->
  let image, journal = write_primary src_path in
  for len = 0 to String.length image - 1 do
    match
      Store.install_stream ~path:dst ~snapshot:(String.sub image 0 len)
        ~journal
    with
    | Ok () ->
      Alcotest.failf "truncated ship (%d/%d bytes) installed" len
        (String.length image)
    | Error _ -> ()
    | exception e ->
      Alcotest.failf "truncated ship at %d bytes raised %s" len
        (Printexc.to_string e)
  done;
  (* the untampered stream installs and loads to the shipped image *)
  (match Store.install_stream ~path:dst ~snapshot:image ~journal with
  | Error e -> Alcotest.failf "clean ship rejected: %s" e
  | Ok () -> ());
  Alcotest.(check string) "installed snapshot is byte-identical" image
    (read_file dst);
  Alcotest.(check string) "installed journal is byte-identical" journal
    (read_file (Store.journal_path dst));
  match Store.load ~path:dst with
  | Error e ->
    Alcotest.failf "installed store failed to load: %s"
      (Format.asprintf "%a" Store.pp_load_error e)
  | Ok r ->
    Alcotest.(check int) "journal replayed in full"
      (List.length journal_records)
      r.Store.replayed

let test_ship_snapshot_bitflip_sweep () =
  let src_path = tmp_store () and dst = tmp_store () in
  Fun.protect
    ~finally:(fun () ->
      cleanup src_path;
      cleanup dst)
  @@ fun () ->
  let image, _ = write_primary src_path in
  String.iteri
    (fun i c ->
      List.iter
        (fun bit ->
          let b = Bytes.of_string image in
          Bytes.set b i (Char.chr (Char.code c lxor (1 lsl bit)));
          match
            Store.install_stream ~path:dst ~snapshot:(Bytes.to_string b)
              ~journal:""
          with
          | Ok () ->
            Alcotest.failf "bit %d of shipped byte %d installed undetected"
              bit i
          | Error _ -> ()
          | exception e ->
            Alcotest.failf "bit %d of byte %d raised %s" bit i
              (Printexc.to_string e))
        [ 0; 7 ])
    image

let test_ship_journal_truncation_sweep () =
  let src_path = tmp_store () and dst = tmp_store () in
  Fun.protect
    ~finally:(fun () ->
      cleanup src_path;
      cleanup dst)
  @@ fun () ->
  let image, journal = write_primary src_path in
  for len = 0 to String.length journal do
    (match
       Store.install_stream ~path:dst ~snapshot:image
         ~journal:(String.sub journal 0 len)
     with
    | Error e -> Alcotest.failf "ship with %d journal bytes rejected: %s" len e
    | Ok () -> ());
    let r = Journal.read ~path:(Store.journal_path dst) in
    let got = List.map snd r.Journal.records in
    let is_prefix =
      List.length got <= List.length journal_records
      && got
         = List.filteri (fun i _ -> i < List.length got) journal_records
    in
    Alcotest.(check bool)
      (Printf.sprintf "prefix property at %d journal bytes" len)
      true is_prefix;
    Alcotest.(check bool)
      (Printf.sprintf "verify accepts the prefix at %d bytes" len)
      true (no_corruption_diags dst)
  done

let test_ship_journal_bitflip_sweep () =
  let src_path = tmp_store () and dst = tmp_store () in
  Fun.protect
    ~finally:(fun () ->
      cleanup src_path;
      cleanup dst)
  @@ fun () ->
  let image, journal = write_primary src_path in
  String.iteri
    (fun i c ->
      let b = Bytes.of_string journal in
      Bytes.set b i (Char.chr (Char.code c lxor 0x10));
      (match
         Store.install_stream ~path:dst ~snapshot:image
           ~journal:(Bytes.to_string b)
       with
      | Error e -> Alcotest.failf "flip at byte %d rejected install: %s" i e
      | Ok () -> ());
      match Store.load ~path:dst with
      | Error e ->
        Alcotest.failf "flip at journal byte %d broke load: %s" i
          (Format.asprintf "%a" Store.pp_load_error e)
      | Ok r ->
        (* a flip can only truncate the record sequence, never alter it *)
        let replayed = r.Store.replayed in
        Alcotest.(check bool)
          (Printf.sprintf "replayed %d is a prefix after flip at %d" replayed
             i)
          true
          (replayed <= List.length journal_records))
    journal

let test_clean_prefix_qcheck =
  QCheck.Test.make
    ~name:"any clean prefix of a shipped stream installs to a verifiable store"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let src_path = tmp_store () and dst = tmp_store () in
      Fun.protect
        ~finally:(fun () ->
          cleanup src_path;
          cleanup dst)
      @@ fun () ->
      let image, journal = write_primary src_path in
      let len = seed mod (String.length journal + 1) in
      match
        Store.install_stream ~path:dst ~snapshot:image
          ~journal:(String.sub journal 0 len)
      with
      | Error _ -> false
      | Ok () -> (
        no_corruption_diags dst
        &&
        match Store.load ~path:dst with Ok _ -> true | Error _ -> false))

(* --- client failover ------------------------------------------------- *)

let test_client_endpoint_parsing () =
  let c = Client.create ~addr:" a.sock, b.sock,,host:7401 " () in
  Alcotest.(check (list string))
    "comma list parses trimmed, empties dropped"
    [ "a.sock"; "b.sock"; "host:7401" ]
    (Client.endpoints c);
  Alcotest.(check string) "starts at the first endpoint" "a.sock"
    (Client.current_addr c);
  Alcotest.(check int) "no rotations yet" 0 (Client.rotations c);
  Client.close c;
  let single = Client.create ~addr:"only.sock" () in
  Alcotest.(check (list string)) "single endpoint" [ "only.sock" ]
    (Client.endpoints single);
  Client.close single

let test_client_rotates_on_dead_endpoint () =
  let dir = Filename.temp_file "mdqa_repl_dir" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> Unix.rmdir dir) @@ fun () ->
  let a = Filename.concat dir "a.sock"
  and b = Filename.concat dir "b.sock" in
  let policy = Backoff.policy ~base:0.001 ~cap:0.002 ~max_attempts:3 () in
  let c =
    Client.create ~policy
      ~rand:(fun _ -> 0.)
      ~addr:(a ^ "," ^ b)
      ()
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* both endpoints dead (ENOENT): the roundtrip must fail, but only
     after rotating through the list *)
  (match Client.roundtrip c "{\"kind\":\"ping\"}" with
  | Ok _ -> Alcotest.fail "roundtrip to two dead endpoints succeeded"
  | Error _ -> ());
  Alcotest.(check bool) "rotated at least once" true (Client.rotations c >= 1)

let parse_reply_exn line =
  match Sproto.parse_reply line with
  | Ok r -> r
  | Error e -> Alcotest.failf "unparseable reply: %s" e

let test_should_retry_reply () =
  let overload =
    parse_reply_exn
      (Sproto.degraded_reply ~code:"W047" ~reason:"overload" ~answers:None
         ~message:"queue full" ())
  in
  Alcotest.(check bool) "overload shed retried" true
    (Client.should_retry_reply overload <> None)

(* A forked peer on a Unix socket that answers each request line of
   one connection with the next scripted reply line. *)
let with_scripted_peer replies f =
  let dir = Filename.temp_file "mdqa_peer_dir" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "peer.sock" in
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 1;
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       let conn, _ = Unix.accept srv in
       let byte = Bytes.create 1 in
       let rec request_line () =
         if Unix.read conn byte 0 1 = 1 && Bytes.get byte 0 <> '\n' then
           request_line ()
       in
       List.iter
         (fun r ->
           request_line ();
           ignore (Unix.write_substring conn r 0 (String.length r)))
         replies
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close srv;
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Sys.remove path;
        Unix.rmdir dir)
      (fun () -> f path)

let test_client_retries_w047 () =
  let w047 =
    Sproto.degraded_reply ~code:"W047" ~reason:"overload" ~answers:None
      ~message:"queue full" ()
  and complete = Sproto.complete_reply ~answers:(Some []) () in
  let policy = Backoff.policy ~base:0.001 ~cap:0.002 ~max_attempts:3 () in
  let roundtrip ?idempotent replies =
    with_scripted_peer replies @@ fun addr ->
    let c = Client.create ~policy ~rand:(fun _ -> 0.) ~addr () in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let r = Client.roundtrip ?idempotent c {|{"kind":"query","query":"q(X) :- p(X)"}|} in
    (r, Client.retries c)
  in
  let code = function
    | Ok r, _ -> Option.value ~default:r.Sproto.status r.Sproto.code
    | Error e, _ -> e
  in
  let r = roundtrip [ w047; w047; complete ] in
  Alcotest.(check string) "W047, W047, complete: complete" "complete" (code r);
  Alcotest.(check int) "after two retries" 2 (snd r);
  let r = roundtrip (List.init 10 (fun _ -> w047)) in
  Alcotest.(check string) "W047 throughout: the last W047 reply" "W047"
    (code r);
  Alcotest.(check int) "after the whole retry budget" 3 (snd r);
  let r = roundtrip ~idempotent:false [ w047; complete ] in
  Alcotest.(check string) "not idempotent: a shed request is re-sent"
    "complete" (code r);
  Alcotest.(check int) "after one retry" 1 (snd r)

(* --- follower -------------------------------------------------------- *)

let test_follower_unreachable_is_e031 () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let policy =
    Backoff.policy ~base:0.001 ~cap:0.002 ~max_attempts:1 ~budget:0.01 ()
  in
  let f =
    Replication.Follower.create ~policy
      ~rand:(fun _ -> 0.)
      ~primary:(path ^ ".nosuch.sock") ~store_path:path
      ~metrics:(Metrics.create ()) ()
  in
  Fun.protect ~finally:(fun () -> Replication.Follower.close f) @@ fun () ->
  match Replication.Follower.initial_sync f with
  | Ok () -> Alcotest.fail "sync against a dead primary succeeded"
  | Error d ->
    Alcotest.(check string) "unreachable primary is E031" "E031" d.Diag.code

let test_follower_promoted_ticks_idle () =
  let path = tmp_store () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let f =
    Replication.Follower.create ~primary:"/nonexistent.sock" ~store_path:path
      ~metrics:(Metrics.create ()) ()
  in
  Fun.protect ~finally:(fun () -> Replication.Follower.close f) @@ fun () ->
  Replication.Follower.mark_promoted f;
  Replication.Follower.mark_promoted f;
  Alcotest.(check bool) "promoted" true (Replication.Follower.promoted f);
  match
    Replication.Follower.tick f
      ~apply:(fun _ -> Alcotest.fail "promoted follower applied records")
      ~resync:(fun _ -> Alcotest.fail "promoted follower resynced")
  with
  | `Idle -> ()
  | `Applied _ | `Lost -> Alcotest.fail "promoted follower did not idle"

(* --- diag registry --------------------------------------------------- *)

let test_replication_codes_registered () =
  List.iter
    (fun (code, mnemonic) ->
      Alcotest.(check (option string))
        (code ^ " registered") (Some mnemonic) (Diag.describe code);
      Alcotest.(check bool)
        (code ^ " in the code table") true
        (List.mem_assoc code Diag.codes))
    [ ("E030", "replication-divergence"); ("E031", "replication-refused");
      ("W050", "stale-read"); ("H055", "promoted");
      ("E032", "unrepairable-store"); ("W051", "salvaged-from-generation");
      ("W052", "journal-records-dropped"); ("H056", "quarantined-file");
      ("E033", "engine-out-of-scope") ]

let suites =
  [ ( "replication.codec",
      [ Alcotest.test_case "hex round-trip and rejection" `Quick
          test_hex_roundtrip;
        QCheck_alcotest.to_alcotest test_hex_qcheck ] );
    ( "replication.source",
      [ Alcotest.test_case "chunked fetch reassembles byte-identically"
          `Quick test_source_fetch_reassembly;
        Alcotest.test_case "stale epoch answers restart" `Quick
          test_source_stale_epoch_restart;
        Alcotest.test_case "store-less source refuses (E031)" `Quick
          test_source_no_store_refuses;
        Alcotest.test_case "same-size image renamed in place re-ships"
          `Quick test_source_same_size_replacement ] );
    ( "replication.stream",
      [ Alcotest.test_case "shipped snapshot truncation sweep" `Quick
          test_ship_snapshot_truncation_sweep;
        Alcotest.test_case "shipped snapshot bit-flip sweep" `Quick
          test_ship_snapshot_bitflip_sweep;
        Alcotest.test_case "shipped journal truncation sweep" `Quick
          test_ship_journal_truncation_sweep;
        Alcotest.test_case "shipped journal bit-flip sweep" `Quick
          test_ship_journal_bitflip_sweep;
        QCheck_alcotest.to_alcotest test_clean_prefix_qcheck ] );
    ( "replication.failover",
      [ Alcotest.test_case "endpoint list parsing" `Quick
          test_client_endpoint_parsing;
        Alcotest.test_case "rotation on dead endpoints" `Quick
          test_client_rotates_on_dead_endpoint;
        Alcotest.test_case "reply retry classification" `Quick
          test_should_retry_reply;
        Alcotest.test_case "W047 retried, then handed back" `Quick
          test_client_retries_w047 ] );
    ( "replication.follower",
      [ Alcotest.test_case "unreachable primary is E031" `Quick
          test_follower_unreachable_is_e031;
        Alcotest.test_case "promoted follower idles" `Quick
          test_follower_promoted_ticks_idle ] );
    ( "replication.diag",
      [ Alcotest.test_case "codes registered" `Quick
          test_replication_codes_registered ] ) ]
