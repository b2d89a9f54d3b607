module Tuple = Mdqa_relational.Tuple
module Instance = Mdqa_relational.Instance
module Chase = Mdqa_datalog.Chase

type t = {
  program_text : string;
  variant : Chase.variant;
  instance : Instance.t;
  null_base : int;
  stats : Chase.stats;
  frontier : (string * Tuple.t list) list option;
}

type corruption = { offset : int; what : string; reason : string }

let magic = "MDQASNAP"
let version = 1

let pp_corruption ppf c =
  Format.fprintf ppf "byte %d (%s): %s" c.offset c.what c.reason

(* --- encoding -------------------------------------------------------- *)

let encode_program b s = Binio.str b s.program_text

let encode_instance b s = Binio.instance b s.instance

let encode_state b s =
  Binio.u8 b (match s.variant with Chase.Restricted -> 0 | Chase.Oblivious -> 1);
  Binio.i64 b s.null_base;
  Binio.i64 b s.stats.Chase.rounds;
  Binio.i64 b s.stats.Chase.tgd_fires;
  Binio.i64 b s.stats.Chase.triggers_checked;
  Binio.i64 b s.stats.Chase.nulls_created;
  Binio.i64 b s.stats.Chase.egd_merges;
  match s.frontier with
  | None -> Binio.u8 b 0
  | Some frontier ->
    Binio.u8 b 1;
    Binio.u32 b (List.length frontier);
    List.iter
      (fun (pred, tuples) ->
        Binio.str b pred;
        Binio.u32 b (List.length tuples);
        List.iter (Binio.tuple b) tuples)
      frontier

let sections = [ ('P', encode_program); ('I', encode_instance); ('C', encode_state) ]

let encode s =
  let out = Buffer.create 4096 in
  Buffer.add_string out magic;
  Binio.u32 out version;
  Binio.u32 out (List.length sections);
  List.iter
    (fun (tag, enc) ->
      let payload = Buffer.create 1024 in
      enc payload s;
      let payload = Buffer.contents payload in
      Binio.u8 out (Char.code tag);
      Binio.u32 out (String.length payload);
      Binio.u32 out (Crc32.digest payload);
      Buffer.add_string out payload)
    sections;
  Buffer.contents out

(* --- atomic write ---------------------------------------------------- *)

let fsync_dir dir =
  (* Directory fsync makes the rename itself durable; not all
     filesystems support it, so failures are ignored. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd
  | exception Unix.Unix_error _ -> ()

(* A pre-encoded image lands with the same tmp/fsync/rename discipline
   as a fresh one: replication installs shipped bytes verbatim, so a
   standby's snapshot is byte-identical to its primary's. *)
let write_raw ~path image =
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Binio.write_all fd image;
      Binio.fsync_retry fd);
  Unix.rename tmp path;
  fsync_dir (Filename.dirname path);
  String.length image

let write ~path s = write_raw ~path (encode s)

(* --- reading --------------------------------------------------------- *)

let decode_state r =
  let variant =
    match Binio.read_u8 r with
    | 0 -> Chase.Restricted
    | 1 -> Chase.Oblivious
    | v ->
      raise
        (Binio.Corrupt
           { offset = Binio.pos r;
             reason = Printf.sprintf "unknown chase variant %d" v })
  in
  let null_base = Binio.read_i64 r in
  let rounds = Binio.read_i64 r in
  let tgd_fires = Binio.read_i64 r in
  let triggers_checked = Binio.read_i64 r in
  let nulls_created = Binio.read_i64 r in
  let egd_merges = Binio.read_i64 r in
  let frontier =
    match Binio.read_u8 r with
    | 0 -> None
    | _ ->
      let n = Binio.read_u32 r in
      let rec preds k acc =
        if k = 0 then List.rev acc
        else begin
          let pred = Binio.read_str r in
          let m = Binio.read_u32 r in
          let rec tuples j acc =
            if j = 0 then List.rev acc
            else tuples (j - 1) (Binio.read_tuple r :: acc)
          in
          preds (k - 1) ((pred, tuples m []) :: acc)
        end
      in
      Some (preds n [])
  in
  ( variant,
    null_base,
    { Chase.rounds; tgd_fires; triggers_checked; nulls_created; egd_merges },
    frontier )

let of_string data =
  let fail offset what reason = Error { offset; what; reason } in
  (
    let len = String.length data in
    if len < String.length magic + 8 then
      fail len "header" "file shorter than the snapshot header"
    else if String.sub data 0 (String.length magic) <> magic then
      fail 0 "header" "bad magic: not an mdqa snapshot"
    else begin
      let r = Binio.reader ~offset:0 data in
      (* skip the magic *)
      for _ = 1 to String.length magic do ignore (Binio.read_u8 r) done;
      match
        let v = Binio.read_u32 r in
        if v <> version then
          raise
            (Binio.Corrupt
               { offset = 8;
                 reason =
                   Printf.sprintf "unsupported snapshot version %d (want %d)" v
                     version });
        let count = Binio.read_u32 r in
        let tbl = Hashtbl.create 4 in
        for _ = 1 to count do
          let tag = Char.chr (Binio.read_u8 r) in
          let plen = Binio.read_u32 r in
          let crc = Binio.read_u32 r in
          let start = Binio.pos r in
          if start + plen > len then
            raise
              (Binio.Corrupt
                 { offset = start;
                   reason =
                     Printf.sprintf
                       "section '%c' claims %d bytes but only %d remain" tag
                       plen (len - start) });
          let payload = String.sub data start plen in
          if Crc32.digest payload <> crc then
            raise
              (Binio.Corrupt
                 { offset = start;
                   reason =
                     Printf.sprintf "section '%c' checksum mismatch" tag });
          (* skip over the payload in the outer reader *)
          let r' = Binio.reader ~offset:start payload in
          Hashtbl.replace tbl tag r';
          for _ = 1 to plen do ignore (Binio.read_u8 r) done
        done;
        let section tag =
          match Hashtbl.find_opt tbl tag with
          | Some r' -> r'
          | None ->
            raise
              (Binio.Corrupt
                 { offset = len;
                   reason = Printf.sprintf "missing section '%c'" tag })
        in
        let program_text = Binio.read_str (section 'P') in
        let instance = Binio.read_instance (section 'I') in
        let variant, null_base, stats, frontier = decode_state (section 'C') in
        { program_text; variant; instance; null_base; stats; frontier }
      with
      | s -> Ok s
      | exception Binio.Corrupt { offset; reason } ->
        fail offset "snapshot" reason
    end)

let read ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error { offset = 0; what = "file"; reason = e }
  | exception End_of_file ->
    Error
      { offset = 0; what = "file"; reason = "unreadable (concurrent truncation)" }
  | data -> of_string data

(* Header walk only: the per-section CRCs without decoding any payload.
   Replication compares these at snapshot boundaries — a standby whose
   program section disagrees with its primary's is diverged, not stale,
   and must refuse to follow rather than silently fork. *)
let section_crcs data =
  let fail offset what reason = Error { offset; what; reason } in
  let len = String.length data in
  if len < String.length magic + 8 then
    fail len "header" "file shorter than the snapshot header"
  else if String.sub data 0 (String.length magic) <> magic then
    fail 0 "header" "bad magic: not an mdqa snapshot"
  else begin
    let r = Binio.reader ~offset:0 data in
    for _ = 1 to String.length magic do ignore (Binio.read_u8 r) done;
    match
      let v = Binio.read_u32 r in
      if v <> version then
        raise
          (Binio.Corrupt
             { offset = 8;
               reason =
                 Printf.sprintf "unsupported snapshot version %d (want %d)" v
                   version });
      let count = Binio.read_u32 r in
      let crcs = ref [] in
      for _ = 1 to count do
        let tag = Char.chr (Binio.read_u8 r) in
        let plen = Binio.read_u32 r in
        let crc = Binio.read_u32 r in
        let start = Binio.pos r in
        if start + plen > len then
          raise
            (Binio.Corrupt
               { offset = start;
                 reason =
                   Printf.sprintf
                     "section '%c' claims %d bytes but only %d remain" tag
                     plen (len - start) });
        crcs := (tag, crc) :: !crcs;
        for _ = 1 to plen do ignore (Binio.read_u8 r) done
      done;
      List.rev !crcs
    with
    | crcs -> Ok crcs
    | exception Binio.Corrupt { offset; reason } -> fail offset "snapshot" reason
  end
