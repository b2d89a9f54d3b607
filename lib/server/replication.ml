module Diag = Mdqa_datalog.Diag
module Snapshot = Mdqa_store.Snapshot
module Journal = Mdqa_store.Journal
module Store = Mdqa_store.Store
module Crc32 = Mdqa_store.Crc32
module Metrics = Mdqa_obs.Metrics
module Failpoint = Mdqa_obs.Failpoint
module Logger = Mdqa_obs.Logger

(* Pull-based primary/standby replication over the ordinary JSONL
   protocol.  The standby drives everything: it fetches the primary's
   snapshot image in resumable CRC-checked hex chunks, installs it
   byte-identically with the local crash-recovery machinery, then
   heartbeats [repl.status] on an interval — each heartbeat both
   reports the high-water mark it has durably applied and learns
   whether the primary's journal grew (fetch + append + replay) or its
   snapshot changed epoch (full resync).  Pull keeps the primary's
   single-threaded event loop untouched: a fetch is just a request. *)

(* --- hex framing ------------------------------------------------------ *)

(* Binary store bytes ride inside JSON strings as lowercase hex.  2x
   the bytes on the wire, zero escaping hazards, and the chunk CRC is
   computed over the *decoded* bytes so corruption in either encoding
   or transport is caught before anything touches the local store. *)

let to_hex s =
  let b = Buffer.create (String.length s * 2) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd-length hex"
  else
    let digit i =
      match s.[i] with
      | '0' .. '9' as c -> Ok (Char.code c - Char.code '0')
      | 'a' .. 'f' as c -> Ok (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' as c -> Ok (Char.code c - Char.code 'A' + 10)
      | c -> Error (Printf.sprintf "bad hex digit %C at %d" c i)
    in
    let b = Bytes.create (n / 2) in
    let rec go i =
      if i >= n then Ok (Bytes.to_string b)
      else
        match (digit i, digit (i + 1)) with
        | Ok hi, Ok lo ->
          Bytes.set b (i / 2) (Char.chr ((hi lsl 4) lor lo));
          go (i + 2)
        | Error e, _ | _, Error e -> Error e
    in
    go 0

let default_chunk = 1 lsl 16

(* --- the primary side ------------------------------------------------- *)

module Source = struct
  type cache = {
    epoch : int;  (** CRC-32 of the whole image: the ship identity *)
    image : string;
    sections : (char * int) list;
    id : Store.image_id option;  (** the file the image was read from *)
  }

  type t = {
    store_path : string option;
    metrics : Metrics.t;
    mutable cache : cache option;
    mutable acked : int;  (** last standby-reported applied hwm; -1 none *)
    mutable last_heartbeat : float;  (** wall clock of the last repl.status *)
  }

  let create ~metrics ~store_path =
    { store_path; metrics; cache = None; acked = -1; last_heartbeat = nan }

  let refused message = Error (Diag.make Diag.Error ~code:"E031" message)

  (* (Re)load the snapshot image when the file changed underneath the
     cache: any rewrite or rename-into-place gives the path a new
     [Store.image_id], whatever its size. *)
  let refresh t =
    match t.store_path with
    | None -> refused "this server has no --store: nothing to replicate"
    | Some path -> (
      let id = Store.image_id ~path in
      match t.cache with
      | Some c when id <> None && c.id = id -> Ok c
      | _ -> (
        match Store.read_image ~path with
        | Error e -> refused (Printf.sprintf "cannot ship snapshot: %s" e)
        | Ok image -> (
          match Snapshot.section_crcs image with
          | Error c ->
            refused
              (Format.asprintf "local snapshot unreadable: %a"
                 Mdqa_store.Binio.pp_damage c)
          | Ok sections ->
            let c = { epoch = Crc32.digest image; image; sections; id } in
            t.cache <- Some c;
            Ok c)))

  let hwm t =
    match t.store_path with
    | None -> 0
    | Some path -> (
      match Store.read_journal_slice ~path ~offset:0 ~len:0 with
      | Ok (_, total) -> total
      | Error _ -> 0)

  let record_ack t acked =
    t.acked <- max t.acked acked;
    t.last_heartbeat <- Unix.gettimeofday ();
    Metrics.set
      (Metrics.gauge t.metrics
         ~help:"journal bytes the standby reports durably applied"
         "mdqa_replication_acked_bytes")
      (float_of_int t.acked);
    Metrics.set
      (Metrics.gauge t.metrics
         ~help:"journal bytes the standby still trails the primary by"
         "mdqa_replication_lag_bytes")
      (float_of_int (max 0 (hwm t - t.acked)))

  let status_fields t =
    match refresh t with
    | Error _ ->
      (* still answer: a primary without a shippable store says so *)
      [ ("epoch", Jsonl.Num 0.); ("snapshot_bytes", Jsonl.Num 0.);
        ("hwm", Jsonl.Num 0.); ("shippable", Jsonl.Bool false) ]
    | Ok c ->
      [ ("epoch", Jsonl.Num (float_of_int c.epoch));
        ("snapshot_bytes", Jsonl.Num (float_of_int (String.length c.image)));
        ("hwm", Jsonl.Num (float_of_int (hwm t)));
        ("shippable", Jsonl.Bool true);
        ("sections",
         Jsonl.Obj
           (List.map
              (fun (tag, crc) ->
                (String.make 1 tag, Jsonl.Num (float_of_int crc)))
              c.sections));
        ("acked", Jsonl.Num (float_of_int t.acked)) ]

  let chunk_fields ~what ~offset ~total ~epoch data =
    [ ("what", Jsonl.Str what);
      ("offset", Jsonl.Num (float_of_int offset));
      ("total", Jsonl.Num (float_of_int total));
      ("epoch", Jsonl.Num (float_of_int epoch));
      ("crc", Jsonl.Num (float_of_int (Crc32.digest data)));
      ("data", Jsonl.Str (to_hex data)) ]

  let count_fetch t what n =
    Metrics.inc
      (Metrics.counter t.metrics ~help:"replication chunks served"
         ~labels:[ ("what", what) ]
         "mdqa_replication_fetches_total");
    Metrics.add
      (Metrics.counter t.metrics ~help:"replication payload bytes served"
         ~labels:[ ("what", what) ]
         "mdqa_replication_shipped_bytes_total")
      n

  let fetch t ~what ~offset ~len ~epoch =
    match what with
    | `Snapshot -> (
      Failpoint.hit "repl.ship";
      match refresh t with
      | Error _ as e -> e
      | Ok c ->
        if epoch <> 0 && epoch <> c.epoch then
          (* the image changed since the standby started this ship:
             tell it to restart from offset 0 against the new epoch *)
          Ok
            [ ("what", Jsonl.Str "snapshot");
              ("restart", Jsonl.Bool true);
              ("epoch", Jsonl.Num (float_of_int c.epoch));
              ("total", Jsonl.Num (float_of_int (String.length c.image))) ]
        else begin
          let total = String.length c.image in
          let offset = min offset total in
          let n = min len (total - offset) in
          let data = String.sub c.image offset n in
          count_fetch t "snapshot" n;
          Ok (chunk_fields ~what:"snapshot" ~offset ~total ~epoch:c.epoch data)
        end)
    | `Journal -> (
      Failpoint.hit "repl.frame";
      match t.store_path with
      | None -> refused "this server has no --store: nothing to replicate"
      | Some path -> (
        match Store.read_journal_slice ~path ~offset ~len with
        | Error e -> refused (Printf.sprintf "cannot read journal: %s" e)
        | Ok (data, total) ->
          count_fetch t "journal" (String.length data);
          let epoch =
            match t.cache with Some c -> c.epoch | None -> epoch
          in
          Ok
            (chunk_fields ~what:"journal" ~offset:(min offset total) ~total
               ~epoch data)))
end

(* --- the standby side ------------------------------------------------- *)

module Follower = struct
  type t = {
    primary : string;
    store_path : string;
    client : Client.t;
    metrics : Metrics.t;
    interval : float;
    promote_after : int;  (** consecutive missed heartbeats; 0 = never *)
    chunk : int;
    policy : Backoff.policy;
    rand : float -> float;
    mutable epoch : int;  (** image CRC we are following; 0 = none yet *)
    mutable fetched_bytes : int;  (** raw journal bytes on local disk *)
    mutable applied_bytes : int;  (** valid prefix replayed into the warm instance *)
    mutable applied_records : int;
    mutable hwm : int;  (** the primary's journal length at last heartbeat *)
    mutable misses : int;
    mutable backoff : Backoff.t option;  (** live only while heartbeats miss *)
    mutable next_poll : float;
    mutable last_caught_up : float;  (** monotonic time we last matched hwm *)
    mutable promoted : bool;
    mutable rounds : int;
  }

  let mono () = Mdqa_datalog.Guard.Clock.now ()

  let create ?(policy = Backoff.default_policy) ?(rand = Random.float)
      ?(interval = 1.0) ?(promote_after = 5) ?(chunk = default_chunk)
      ~primary ~store_path ~metrics () =
    { primary;
      store_path;
      client = Client.create ~policy ~rand ~addr:primary ();
      metrics;
      interval;
      promote_after;
      chunk;
      policy;
      rand;
      epoch = 0;
      fetched_bytes = 0;
      applied_bytes = 0;
      applied_records = 0;
      hwm = 0;
      misses = 0;
      backoff = None;
      next_poll = 0.;
      last_caught_up = mono ();
      promoted = false;
      rounds = 0 }

  let primary_addr t = t.primary
  let promoted t = t.promoted
  let close t = Client.close t.client

  let gauge t name help v = Metrics.set (Metrics.gauge t.metrics ~help name) v

  let record_lag t =
    gauge t "mdqa_replication_lag_bytes"
      "journal bytes the standby still trails the primary by"
      (float_of_int (max 0 (t.hwm - t.applied_bytes)));
    gauge t "mdqa_replication_lag_seconds"
      "seconds since the standby last matched the primary's high-water mark"
      (mono () -. t.last_caught_up);
    gauge t "mdqa_replication_applied_bytes"
      "journal bytes durably applied by the standby"
      (float_of_int t.applied_bytes);
    gauge t "mdqa_replication_heartbeat_misses"
      "consecutive missed heartbeats against the primary"
      (float_of_int t.misses)

  let err code fmt = Printf.ksprintf (fun m -> Error (Diag.make Diag.Error ~code m)) fmt

  (* One protocol exchange with the primary.  Any outcome that is not
     a complete reply is a miss: the primary may be dead, restarting,
     draining or itself degraded — the distinction does not matter to
     the follower, only the count does. *)
  let exchange t line =
    match Client.roundtrip t.client line with
    | Ok r when r.Protocol.status = "complete" -> Ok r
    | Ok r ->
      Error
        (Printf.sprintf "primary answered %s%s" r.Protocol.status
           (match r.Protocol.code with Some c -> " " ^ c | None -> ""))
    | Error e -> Error e

  let num_field name json = Option.map int_of_float (Jsonl.num_field name json)

  let heartbeat t =
    let line =
      Jsonl.to_string
        (Jsonl.Obj
           [ ("kind", Jsonl.Str "repl.status");
             ("acked", Jsonl.Num (float_of_int t.applied_bytes)) ])
    in
    match exchange t line with
    | Error _ as e -> e
    | Ok r -> (
      let json = r.Protocol.json in
      match (num_field "epoch" json, num_field "hwm" json) with
      | Some epoch, Some hwm ->
        let role =
          Option.value ~default:"primary" (Jsonl.str_field "role" json)
        in
        let sections =
          match Jsonl.member "sections" json with
          | Some (Jsonl.Obj kvs) ->
            List.filter_map
              (fun (k, v) ->
                match (k, Jsonl.to_num v) with
                | k, Some crc when String.length k = 1 ->
                  Some (k.[0], int_of_float crc)
                | _ -> None)
              kvs
          | _ -> []
        in
        Ok (role, epoch, hwm, sections)
      | _ -> Error "repl.status reply missing epoch/hwm fields")

  (* Fetch one chunk; validates the per-chunk CRC over decoded bytes. *)
  let fetch_chunk t ~what ~offset ~epoch =
    let line =
      Jsonl.to_string
        (Jsonl.Obj
           [ ("kind", Jsonl.Str "repl.fetch");
             ("what", Jsonl.Str what);
             ("offset", Jsonl.Num (float_of_int offset));
             ("len", Jsonl.Num (float_of_int t.chunk));
             ("epoch", Jsonl.Num (float_of_int epoch)) ])
    in
    match exchange t line with
    | Error _ as e -> e
    | Ok r -> (
      let json = r.Protocol.json in
      match Jsonl.member "restart" json with
      | Some (Jsonl.Bool true) -> (
        match num_field "epoch" json with
        | Some e -> Ok (`Restart e)
        | None -> Error "restart reply missing epoch")
      | _ -> (
        match
          (Jsonl.str_field "data" json, num_field "crc" json,
           num_field "total" json, num_field "epoch" json)
        with
        | Some hex, Some crc, Some total, Some epoch -> (
          match of_hex hex with
          | Error e -> Error (Printf.sprintf "undecodable chunk: %s" e)
          | Ok data ->
            if Crc32.digest data <> crc then Error "chunk checksum mismatch"
            else Ok (`Chunk (data, total, epoch)))
        | _ -> Error "repl.fetch reply missing data/crc/total/epoch"))

  (* Pull [offset..total) of snapshot or journal into a buffer,
     resuming chunk by chunk; transient failures retry under the
     follower's own full-jitter policy.  A [`Restart] from the primary
     (epoch changed mid-ship) surfaces to the caller. *)
  let fetch_all t ~what ~epoch ~from =
    let buf = Buffer.create 4096 in
    let bo = ref (Backoff.start t.policy) in
    let rec go offset epoch =
      match fetch_chunk t ~what ~offset ~epoch with
      | Error why -> (
        match Backoff.next !bo ~rand:t.rand with
        | Some d ->
          Fdio.sleepf d;
          go offset epoch
        | None -> Error (Printf.sprintf "fetch %s: %s" what why))
      | Ok (`Restart e) -> Ok (`Restart e)
      | Ok (`Chunk (data, total, epoch)) ->
        bo := Backoff.start t.policy;
        Buffer.add_string buf data;
        let offset = offset + String.length data in
        if offset >= total || data = "" then
          Ok (`Done (Buffer.contents buf, total, epoch))
        else go offset epoch
    in
    go from epoch

  (* --- initial sync --------------------------------------------------- *)

  let local_journal_state t =
    let jr = Journal.read ~path:(Store.journal_path t.store_path) in
    let size =
      match Unix.stat (Store.journal_path t.store_path) with
      | s -> s.Unix.st_size
      | exception Unix.Unix_error _ -> 0
    in
    (jr, size)

  (* Divergence rules, checked before any byte is installed:
     - a primary serving a different *program* section is a different
       ontology, not a stale copy of ours: E030, never follow;
     - a local journal strictly ahead of the primary's high-water mark
       at the same epoch means *we* have state the primary lacks (a
       promoted standby being pointed back at its old primary): E030. *)
  let divergence_check t ~remote_epoch ~remote_hwm ~remote_sections =
    match Store.read_image ~path:t.store_path with
    | Error _ -> Ok `Fresh  (* nothing local: nothing to diverge *)
    | Ok local_image -> (
      match Snapshot.section_crcs local_image with
      | Error _ -> Ok `Fresh  (* local image unreadable: re-ship over it *)
      | Ok local_sections -> (
        let crc tag l = List.assoc_opt tag l in
        match (crc 'P' local_sections, crc 'P' remote_sections) with
        | Some lp, Some rp when lp <> rp ->
          err "E030"
            "program section CRC mismatch (local %d, primary %d): the \
             primary serves a different ontology; refusing to follow"
            lp rp
        | _ ->
          let local_epoch = Crc32.digest local_image in
          let _, local_size = local_journal_state t in
          if local_epoch = remote_epoch && local_size > remote_hwm then
            err "E030"
              "local journal (%d bytes) is ahead of the primary's \
               high-water mark (%d) at the same snapshot epoch: this \
               store has state the primary lacks; refusing to follow"
              local_size remote_hwm
          else if local_epoch = remote_epoch then Ok (`Resume local_size)
          else Ok `Fresh))

  let sync_stream t ~epoch ~hwm:_ =
    match fetch_all t ~what:"snapshot" ~epoch ~from:0 with
    | Error _ as e -> e
    | Ok (`Restart e) -> Ok (`Restart e)
    | Ok (`Done (image, total, epoch)) ->
      if String.length image <> total then
        Error
          (Printf.sprintf "snapshot ship incomplete: %d of %d bytes"
             (String.length image) total)
      else if Crc32.digest image <> epoch then
        Error "shipped snapshot image does not match its epoch CRC"
      else (
        match fetch_all t ~what:"journal" ~epoch ~from:0 with
        | Error _ as e -> e
        | Ok (`Restart e) -> Ok (`Restart e)
        | Ok (`Done (journal, _, _)) -> (
          match
            Store.install_stream ~path:t.store_path ~snapshot:image ~journal
          with
          | Error e -> Error (Printf.sprintf "install failed: %s" e)
          | Ok () -> Ok (`Installed epoch)))

  (* Bring the local store in line with the primary before the service
     warm-starts from it.  Blocking, with bounded retries; resumable
     mid-ship; total failure comes back as a located diagnostic. *)
  let initial_sync t =
    let t0 = mono () in
    let attempts = ref 0 in
    let bo = ref (Backoff.start t.policy) in
    let rec attempt () =
      incr attempts;
      match heartbeat t with
      | Error why -> retry ("primary unreachable: " ^ why)
      | Ok (role, epoch, hwm, sections) ->
        if role <> "primary" then
          retry (Printf.sprintf "replica-of target is a %s, not a primary" role)
        else (
          match divergence_check t ~remote_epoch:epoch ~remote_hwm:hwm
                  ~remote_sections:sections
          with
          | Error _ as e -> e  (* divergence never retries *)
          | Ok (`Resume local_size) ->
            (* same image, journal only behind: no snapshot re-ship *)
            finish ~epoch ~fetched:local_size
          | Ok `Fresh -> (
            match sync_stream t ~epoch ~hwm with
            | Error why -> retry why
            | Ok (`Restart _) -> retry "snapshot epoch changed mid-ship"
            | Ok (`Installed epoch) ->
              let _, size = local_journal_state t in
              finish ~epoch ~fetched:size))
    and retry why =
      match Backoff.next !bo ~rand:t.rand with
      | Some d ->
        Logger.warn
          ~fields:
            [ ("primary", Logger.Str t.primary);
              ("reason", Logger.Str why);
              ("attempt", Logger.Int !attempts) ]
          "replication sync retrying";
        Fdio.sleepf d;
        attempt ()
      | None ->
        err "E031" "cannot sync from %s after %d attempts: %s" t.primary
          !attempts why
    and finish ~epoch ~fetched =
      let jr, _ = local_journal_state t in
      t.epoch <- epoch;
      t.fetched_bytes <- fetched;
      t.applied_bytes <- jr.Journal.valid_bytes;
      t.applied_records <- List.length jr.Journal.records;
      t.hwm <- max t.hwm t.applied_bytes;
      t.last_caught_up <- mono ();
      t.next_poll <- mono () +. t.interval;
      Metrics.observe
        (Metrics.histogram t.metrics
           ~help:"duration of full standby syncs against the primary"
           "mdqa_replication_sync_seconds")
        (mono () -. t0);
      record_lag t;
      Ok ()
    in
    attempt ()

  (* --- steady-state following ----------------------------------------- *)

  let apply_new_records t ~apply =
    let jr, size = local_journal_state t in
    let fresh =
      List.filteri (fun i _ -> i >= t.applied_records) jr.Journal.records
      |> List.map snd
    in
    if fresh <> [] then apply fresh;
    t.fetched_bytes <- size;
    t.applied_bytes <- jr.Journal.valid_bytes;
    t.applied_records <- List.length jr.Journal.records;
    List.length fresh

  let miss t why =
    t.misses <- t.misses + 1;
    Metrics.inc
      (Metrics.counter t.metrics ~help:"heartbeats the primary failed to answer"
         "mdqa_replication_heartbeat_misses_total");
    let bo =
      match t.backoff with
      | Some bo -> bo
      | None ->
        let bo = Backoff.start t.policy in
        t.backoff <- Some bo;
        bo
    in
    let delay =
      match Backoff.next bo ~rand:t.rand with
      | Some d -> d
      | None ->
        (* budget spent: keep probing at the capped interval *)
        t.backoff <- None;
        t.policy.Backoff.cap
    in
    t.next_poll <- mono () +. delay;
    record_lag t;
    Logger.warn
      ~fields:
        [ ("primary", Logger.Str t.primary);
          ("misses", Logger.Int t.misses);
          ("reason", Logger.Str why) ]
      "replication heartbeat missed";
    if t.promote_after > 0 && t.misses >= t.promote_after then `Lost else `Idle

  (* One poll of the primary, due or not ([tick] gates on time).
     [apply] replays fresh journal records into the warm instance;
     [resync] replaces it wholesale after an epoch change. *)
  let poll t ~apply ~resync =
    let t0 = mono () in
    let finish r =
      Metrics.observe
        (Metrics.histogram t.metrics ~help:"standby poll duration"
           "mdqa_replication_poll_seconds")
        (mono () -. t0);
      record_lag t;
      r
    in
    match heartbeat t with
    | Error why -> finish (miss t why)
    | Ok (role, epoch, hwm, _sections) ->
      if role <> "primary" then finish (miss t ("primary became " ^ role))
      else begin
        t.misses <- 0;
        t.backoff <- None;
        t.rounds <- t.rounds + 1;
        Metrics.inc
          (Metrics.counter t.metrics ~help:"completed standby polls"
             "mdqa_replication_rounds_total");
        t.hwm <- hwm;
        t.next_poll <- mono () +. t.interval;
        let result =
          if epoch <> t.epoch || hwm < t.fetched_bytes then begin
            (* new snapshot epoch, or the journal shrank under us
               (compaction): re-ship the whole stream and swap the
               warm instance *)
            match sync_stream t ~epoch ~hwm with
            | Error why -> miss t ("resync failed: " ^ why)
            | Ok (`Restart _) -> miss t "snapshot epoch changed mid-resync"
            | Ok (`Installed epoch') -> (
              match Store.read_image ~path:t.store_path with
              | Error e -> miss t ("installed image unreadable: " ^ e)
              | Ok image -> (
                match Snapshot.of_string image with
                | Error c ->
                  miss t
                    (Format.asprintf "installed image corrupt: %a"
                       Mdqa_store.Binio.pp_damage c)
                | Ok snap ->
                  resync snap;
                  t.epoch <- epoch';
                  t.applied_records <- 0;
                  t.applied_bytes <- 0;
                  t.fetched_bytes <- 0;
                  let n = apply_new_records t ~apply in
                  `Applied n))
          end
          else if hwm > t.fetched_bytes then begin
            match fetch_all t ~what:"journal" ~epoch ~from:t.fetched_bytes with
            | Error why -> miss t ("journal fetch failed: " ^ why)
            | Ok (`Restart _) -> miss t "snapshot epoch changed mid-fetch"
            | Ok (`Done (bytes, _, _)) -> (
              (* [fetch_all ~from] returns only the new suffix *)
              match Store.append_journal_bytes ~path:t.store_path bytes with
              | Error e -> miss t ("journal append failed: " ^ e)
              | Ok () ->
                let n = apply_new_records t ~apply in
                `Applied n)
          end
          else `Idle
        in
        if t.applied_bytes >= t.hwm then t.last_caught_up <- mono ();
        finish result
      end

  let tick t ~apply ~resync =
    if t.promoted || mono () < t.next_poll then `Idle
    else poll t ~apply ~resync

  let mark_promoted t =
    if not t.promoted then begin
      t.promoted <- true;
      Metrics.inc
        (Metrics.counter t.metrics ~help:"standby promotions to primary"
           "mdqa_replication_promotions_total")
    end

  let lag_fields t =
    [ ("lag_bytes", Jsonl.Num (float_of_int (max 0 (t.hwm - t.applied_bytes))));
      ("lag_s", Jsonl.Num (mono () -. t.last_caught_up));
      ("primary", Jsonl.Str t.primary) ]

  let status_fields t =
    [ ("primary", Jsonl.Str t.primary);
      ("epoch", Jsonl.Num (float_of_int t.epoch));
      ("applied_bytes", Jsonl.Num (float_of_int t.applied_bytes));
      ("applied_records", Jsonl.Num (float_of_int t.applied_records));
      ("hwm", Jsonl.Num (float_of_int t.hwm));
      ("misses", Jsonl.Num (float_of_int t.misses));
      ("rounds", Jsonl.Num (float_of_int t.rounds));
      ("promoted", Jsonl.Bool t.promoted) ]
end
