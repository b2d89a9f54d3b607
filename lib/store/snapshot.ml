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

let magic = "MDQASNAP"
let version = 1

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

(* The layout: magic, u32 version, u32 section count, then per section
   u8 tag, u32 payload length, u32 payload CRC.  Version 1 has exactly
   the three sections of [sections], in that order. *)
let tags = Array.of_list (List.map fst sections)

let layout =
  let count_at = String.length magic + 4 in
  { Binio.header_len = count_at + 4;
    header =
      (fun s ->
        Result.bind (Binio.file_header ~magic ~version ~what:"snapshot" s)
          (fun () ->
            let n = Binio.get_u32 s count_at in
            if n = Array.length tags then Ok (Some n)
            else
              Error
                { Binio.offset = count_at;
                  kind = Bad_header;
                  reason =
                    Printf.sprintf "section count %d (want %d)" n
                      (Array.length tags) }));
    frame_len = 9;
    frame =
      (fun ~at ~index s ->
        if s.[0] = tags.(index) then Ok (Binio.get_u32 s 1, Binio.get_u32 s 5)
        else
          Error
            { Binio.offset = at;
              kind = Bad_header;
              reason =
                Printf.sprintf "section tag %C where '%c' belongs" s.[0]
                  tags.(index) });
    name = (fun i -> Printf.sprintf "section '%c'" tags.(i)) }

(* The one section walk: framing, order and every CRC.  Its frames are
   the three sections, in [tags] order. *)
let frames data =
  let acc = ref [] in
  Binio.walk_string layout data ~on_frame:(fun f ->
      acc := f :: !acc;
      Ok ())
  |> Result.map (fun () -> Array.of_list (List.rev !acc))

let of_string data =
  let ( let* ) = Result.bind in
  let* f = frames data in
  let decode i = Binio.decode_frame layout data f.(i) in
  let* program_text = decode 0 Binio.read_str in
  let* instance = decode 1 Binio.read_instance in
  let* variant, null_base, stats, frontier = decode 2 decode_state in
  Ok { program_text; variant; instance; null_base; stats; frontier }

let read ~path = Result.bind (Binio.read_file path) of_string

(* Per-section CRCs.  Replication compares these at snapshot
   boundaries — a standby whose program section disagrees with its
   primary's is diverged, not stale, and must refuse to follow rather
   than silently fork. *)
let section_crcs data =
  Result.map
    (fun fs ->
      List.map
        (fun (f : Binio.frame) -> (tags.(f.index), f.crc))
        (Array.to_list fs))
    (frames data)
