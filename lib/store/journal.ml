module Tuple = Mdqa_relational.Tuple
module Value = Mdqa_relational.Value
module Chase = Mdqa_datalog.Chase

type record =
  | Fact of string * Tuple.t
  | Merge of { from_ : Value.t; into : Value.t }
  | Round of { merged : bool; stats : Chase.stats }

let magic = "MDQAJRNL"
let version = 1

(* The layout: magic, u32 version, then frames of u32 payload length,
   u32 payload CRC and the payload, up to the end of the file. *)
let layout =
  { Binio.header_len = String.length magic + 4;
    header =
      (fun s ->
        Result.map (fun () -> None)
          (Binio.file_header ~magic ~version ~what:"journal" s));
    frame_len = 8;
    frame = (fun ~at:_ ~index:_ s -> Ok (Binio.get_u32 s 0, Binio.get_u32 s 4));
    name = (fun _ -> "record") }

(* --- encoding -------------------------------------------------------- *)

let encode_payload b = function
  | Fact (pred, t) ->
    Binio.u8 b 1;
    Binio.str b pred;
    Binio.tuple b t
  | Merge { from_; into } ->
    Binio.u8 b 2;
    Binio.value b from_;
    Binio.value b into
  | Round { merged; stats } ->
    Binio.u8 b 3;
    Binio.u8 b (if merged then 1 else 0);
    Binio.i64 b stats.Chase.rounds;
    Binio.i64 b stats.Chase.tgd_fires;
    Binio.i64 b stats.Chase.triggers_checked;
    Binio.i64 b stats.Chase.nulls_created;
    Binio.i64 b stats.Chase.egd_merges

let decode_payload r =
  match Binio.read_u8 r with
  | 1 ->
    let pred = Binio.read_str r in
    Fact (pred, Binio.read_tuple r)
  | 2 ->
    let from_ = Binio.read_value r in
    let into = Binio.read_value r in
    Merge { from_; into }
  | 3 ->
    let merged = Binio.read_u8 r <> 0 in
    let rounds = Binio.read_i64 r in
    let tgd_fires = Binio.read_i64 r in
    let triggers_checked = Binio.read_i64 r in
    let nulls_created = Binio.read_i64 r in
    let egd_merges = Binio.read_i64 r in
    Round
      { merged;
        stats =
          { Chase.rounds; tgd_fires; triggers_checked; nulls_created;
            egd_merges } }
  | tag ->
    raise
      (Binio.Corrupt
         { offset = Binio.pos r;
           reason = Printf.sprintf "unknown journal record tag %d" tag })

(* --- writing --------------------------------------------------------- *)

type writer = { fd : Unix.file_descr; mutable closed : bool }

let create ~path =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let b = Buffer.create 16 in
  Buffer.add_string b magic;
  Binio.u32 b version;
  Binio.write_all fd (Buffer.contents b);
  Binio.fsync_retry fd;
  { fd; closed = false }

let append w record =
  if w.closed then invalid_arg "Journal.append: writer is closed";
  let payload = Buffer.create 64 in
  encode_payload payload record;
  let payload = Buffer.contents payload in
  let frame = Buffer.create (String.length payload + 8) in
  Binio.u32 frame (String.length payload);
  Binio.u32 frame (Crc32.digest payload);
  Buffer.add_string frame payload;
  let frame = Buffer.contents frame in
  Binio.write_all w.fd frame;
  String.length frame

let sync w = if not w.closed then Binio.fsync_retry w.fd

let close w =
  if not w.closed then begin
    (try Binio.fsync_retry w.fd with Unix.Unix_error _ -> ());
    Unix.close w.fd;
    w.closed <- true
  end

(* --- recovery -------------------------------------------------------- *)

type read_result = {
  records : (int * record) list;
  truncation : Binio.damage option;
  valid_bytes : int;
}

(* The first frame that does not fully check out — torn, failing its
   CRC, or not decoding under a valid one — truncates recovery at its
   first byte. *)
let read ~path =
  let records = ref [] and sym = Value.interner () in
  let walked =
    Result.bind (Binio.read_file path) (fun data ->
        Binio.walk_string layout data ~on_frame:(fun f ->
            Binio.decode_frame ~sym layout data f decode_payload
            |> Result.map (fun record -> records := (f.at, record) :: !records))
        |> Result.map (fun () -> String.length data))
  in
  match walked with
  | Ok len ->
    { records = List.rev !records; truncation = None; valid_bytes = len }
  | Error d ->
    { records = List.rev !records;
      truncation = Some d;
      valid_bytes =
        (match d.kind with Bad_header | Unreadable -> 0 | _ -> d.offset) }
