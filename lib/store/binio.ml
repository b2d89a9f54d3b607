module Value = Mdqa_relational.Value
module Tuple = Mdqa_relational.Tuple
module Attribute = Mdqa_relational.Attribute
module Rel_schema = Mdqa_relational.Rel_schema
module Relation = Mdqa_relational.Relation
module Instance = Mdqa_relational.Instance

exception Corrupt of { offset : int; reason : string }

(* --- damage ---------------------------------------------------------- *)

type damage_kind =
  | Bad_header
  | Torn_tail
  | Crc_mismatch
  | Inapplicable
  | Unreadable
  | Bad_program

type damage = { offset : int; kind : damage_kind; reason : string }

let kind_name = function
  | Bad_header -> "bad-header"
  | Torn_tail -> "torn-tail"
  | Crc_mismatch -> "crc-mismatch"
  | Inapplicable -> "inapplicable-record"
  | Unreadable -> "unreadable"
  | Bad_program -> "bad-program"

let pp_damage ppf d =
  Format.fprintf ppf "byte %d (%s): %s" d.offset (kind_name d.kind) d.reason

(* --- writing --------------------------------------------------------- *)

let u8 b n = Buffer.add_char b (Char.chr (n land 0xff))

let u32 b n =
  if n < 0 || n > 0xFFFFFFFF then invalid_arg "Binio.u32: out of range";
  u8 b n;
  u8 b (n lsr 8);
  u8 b (n lsr 16);
  u8 b (n lsr 24)

let i64 b n =
  let v = Int64.of_int n in
  for k = 0 to 7 do
    u8 b (Int64.to_int (Int64.shift_right_logical v (8 * k)))
  done

(* Floats travel as their raw IEEE-754 bits; [Int64.to_int] would lose
   the top bit, so the 8 bytes are emitted directly. *)
let f64 b x =
  let v = Int64.bits_of_float x in
  for k = 0 to 7 do
    u8 b (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xFFL))
  done

let str b s =
  u32 b (String.length s);
  Buffer.add_string b s

let value b = function
  | Value.Sym { name; _ } ->
    u8 b 0;
    str b name
  | Value.Int n ->
    u8 b 1;
    i64 b n
  | Value.Real x ->
    u8 b 2;
    f64 b x
  | Value.Null k ->
    u8 b 3;
    i64 b k

let tuple b t =
  let vs = Tuple.to_list t in
  u32 b (List.length vs);
  List.iter (value b) vs

let attribute b (a : Attribute.t) =
  match Attribute.kind a with
  | Attribute.Plain ->
    u8 b 0;
    str b (Attribute.name a)
  | Attribute.Categorical { dimension; category } ->
    u8 b 1;
    str b (Attribute.name a);
    str b dimension;
    str b category

let schema b s =
  str b (Rel_schema.name s);
  let attrs = Rel_schema.attributes s in
  u32 b (List.length attrs);
  List.iter (attribute b) attrs

let relation b r =
  schema b (Relation.schema r);
  u32 b (Relation.cardinal r);
  List.iter (tuple b) (Relation.to_list r)

let instance b i =
  let rels = Instance.relations i in
  u32 b (List.length rels);
  List.iter (relation b) rels

(* --- file output ----------------------------------------------------- *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let rec fsync_retry fd =
  try Unix.fsync fd
  with Unix.Unix_error (Unix.EINTR, _, _) -> fsync_retry fd

(* --- file input ------------------------------------------------------ *)

let pread fd buf ~off ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go got =
    if got >= len then got
    else
      match Unix.read fd buf got (len - got) with
      | 0 -> got
      | n -> go (got + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go got
  in
  go 0

let read_file path =
  let unreadable reason = Error { offset = 0; kind = Unreadable; reason } in
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
    unreadable (path ^ ": " ^ Unix.error_message e)
  | fd -> (
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    match
      let size = (Unix.fstat fd).Unix.st_size in
      let buf = Bytes.create size in
      if pread fd buf ~off:0 ~len:size = size then
        Ok (Bytes.unsafe_to_string buf)
      else unreadable (path ^ ": file shrank mid-read")
    with
    | r -> r
    | exception Unix.Unix_error (e, _, _) ->
      unreadable (path ^ ": " ^ Unix.error_message e))

(* --- reading --------------------------------------------------------- *)

type reader = {
  data : string; mutable p : int; base : int; sym : string -> Value.t }

let reader ?(offset = 0) ?(sym = Value.interner ()) data =
  { data; p = 0; base = offset; sym }
let pos r = r.p
let at_end r = r.p >= String.length r.data

let corrupt r reason = raise (Corrupt { offset = r.base + r.p; reason })

let need r n =
  if n < 0 || r.p + n > String.length r.data then
    corrupt r
      (Printf.sprintf "truncated: need %d more byte(s), %d left" n
         (String.length r.data - r.p))

let read_u8 r =
  need r 1;
  let v = Char.code r.data.[r.p] in
  r.p <- r.p + 1;
  v

let get_u32 s i = Int32.to_int (String.get_int32_le s i) land 0xFFFF_FFFF

let read_u32 r =
  need r 4;
  let v = get_u32 r.data r.p in
  r.p <- r.p + 4;
  v

let read_raw_i64 r =
  need r 8;
  let v = ref 0L in
  for k = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code r.data.[r.p + k]))
  done;
  r.p <- r.p + 8;
  !v

let read_i64 r = Int64.to_int (read_raw_i64 r)
let read_f64 r = Int64.float_of_bits (read_raw_i64 r)

let read_str r =
  let n = read_u32 r in
  need r n;
  let s = String.sub r.data r.p n in
  r.p <- r.p + n;
  s

let read_value r =
  match read_u8 r with
  | 0 -> r.sym (read_str r)
  | 1 -> Value.int (read_i64 r)
  | 2 -> Value.real (read_f64 r)
  | 3 -> Value.null (read_i64 r)
  | tag -> corrupt r (Printf.sprintf "unknown value tag %d" tag)

let read_tuple r =
  let n = read_u32 r in
  (* Each value is at least one byte, so a corrupt count fails fast on
     [need] instead of allocating unboundedly. *)
  let rec go k acc =
    if k = 0 then List.rev acc else go (k - 1) (read_value r :: acc)
  in
  Tuple.of_list (go n [])

let read_attribute r =
  match read_u8 r with
  | 0 -> Attribute.plain (read_str r)
  | 1 ->
    let name = read_str r in
    let dimension = read_str r in
    let category = read_str r in
    Attribute.categorical name ~dimension ~category
  | tag -> corrupt r (Printf.sprintf "unknown attribute tag %d" tag)

(* Construction functions validate (duplicate attributes, arity
   clashes); on CRC-passing but semantically bad data they raise
   [Invalid_argument], surfaced as corruption. *)
let build r f =
  try f () with Invalid_argument m -> corrupt r m

let read_schema r =
  let name = read_str r in
  let n = read_u32 r in
  let rec go k acc =
    if k = 0 then List.rev acc else go (k - 1) (read_attribute r :: acc)
  in
  let attrs = go n [] in
  build r (fun () -> Rel_schema.make name attrs)

let read_relation r =
  let s = read_schema r in
  let rel = Relation.create s in
  let n = read_u32 r in
  for _ = 1 to n do
    let t = read_tuple r in
    ignore (build r (fun () -> Relation.add rel t))
  done;
  rel

let read_instance r =
  let n = read_u32 r in
  let rec go k acc =
    if k = 0 then List.rev acc else go (k - 1) (read_relation r :: acc)
  in
  let rels = go n [] in
  build r (fun () -> Instance.of_relations rels)

(* --- framed files ---------------------------------------------------- *)

type layout = {
  header_len : int;
  header : string -> (int option, damage) result;
  frame_len : int;
  frame : at:int -> index:int -> string -> (int * int, damage) result;
  name : int -> string;
}

let file_header ~magic ~version ~what s =
  let m = String.length magic in
  if String.sub s 0 m <> magic then
    Error
      { offset = 0;
        kind = Bad_header;
        reason = "bad magic: not an mdqa " ^ what }
  else if get_u32 s m <> version then
    Error
      { offset = m;
        kind = Bad_header;
        reason =
          Printf.sprintf "unsupported %s version %d (want %d)" what
            (get_u32 s m) version }
  else Ok ()

type frame = { index : int; at : int; body : int; len : int; crc : int }

type phase =
  | Header
  | Frames of { index : int; due : int option }
      (* [due]: frames still to come; [None]: up to end of file *)
  | Payload of { frame : frame; due : int option; run : Crc32.running }
  | Over

type walk = { layout : layout; mutable phase : phase; mutable off : int }

type event = More | Verified of frame | Damaged of damage | Finished

let walk layout = { layout; phase = Header; off = 0 }
let offset w = w.off

let want w =
  match w.phase with
  | Header -> (w.layout.header_len, w.layout.header_len)
  | Frames { due = Some 0; _ } -> (1, 1)  (* any byte here trails *)
  | Frames _ -> (w.layout.frame_len, w.layout.frame_len)
  | Payload { frame; _ } -> (1, frame.body + frame.len - w.off)
  | Over -> (0, 0)

let feed w buf ~pos ~len =
  let l = w.layout and at = w.off in
  w.off <- at + len;
  let stop d =
    w.phase <- Over;
    Damaged d
  in
  let finished () =
    w.phase <- Over;
    Finished
  in
  let torn offset what =
    stop { offset; kind = Torn_tail; reason = "file ends inside " ^ what }
  in
  (* A payload is complete: its CRC decides. *)
  let check frame due run =
    if Crc32.finish run <> frame.crc then
      stop
        { offset = frame.at;
          kind = Crc_mismatch;
          reason = l.name frame.index ^ " checksum mismatch" }
    else begin
      w.phase <- Frames { index = frame.index + 1; due = Option.map pred due };
      Verified frame
    end
  in
  match w.phase with
  | Over -> Finished
  | Header -> (
    if len < l.header_len then torn 0 "the file header"
    else
      match l.header (Bytes.sub_string buf pos len) with
      | Ok due ->
        w.phase <- Frames { index = 0; due };
        More
      | Error d -> stop d)
  | Frames { index; due = Some 0 } ->
    if len = 0 then finished ()
    else
      stop
        { offset = at;
          kind = Bad_header;
          reason = "bytes trail " ^ l.name (index - 1) }
  | Frames { due = None; _ } when len = 0 -> finished ()
  | Frames { index; due } -> (
    if len < l.frame_len then torn at ("the header of " ^ l.name index)
    else
      match l.frame ~at ~index (Bytes.sub_string buf pos len) with
      | Error d -> stop d
      | Ok (plen, crc) ->
        let frame = { index; at; body = at + len; len = plen; crc } in
        if plen = 0 then check frame due Crc32.start
        else begin
          w.phase <- Payload { frame; due; run = Crc32.start };
          More
        end)
  | Payload p ->
    if len = 0 then torn p.frame.at (l.name p.frame.index)
    else
      let run = Crc32.feed p.run buf ~pos ~len in
      if w.off < p.frame.body + p.frame.len then begin
        w.phase <- Payload { p with run };
        More
      end
      else check p.frame p.due run

let walk_string layout data ~on_frame =
  let w = walk layout in
  let buf = Bytes.unsafe_of_string data in
  let rec go () =
    let pos = w.off in
    let len = max 0 (min (snd (want w)) (String.length data - pos)) in
    match feed w buf ~pos ~len with
    | More -> go ()
    | Verified f -> Result.bind (on_frame f) go
    | Damaged d -> Error d
    | Finished -> Ok ()
  in
  go ()


(* A payload under a valid CRC that still does not decode, or leaves
   bytes over, is a writer bug or format skew; it is located at its
   frame like any other damage to it. *)
let decode_frame ~sym layout data f dec =
  let r = reader ~offset:f.body ~sym (String.sub data f.body f.len) in
  match
    let v = dec r in
    if not (at_end r) then corrupt r "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Corrupt { offset; reason } ->
    Error
      { offset = f.at;
        kind = Crc_mismatch;
        reason =
          Printf.sprintf "%s does not decode (byte %d): %s"
            (layout.name f.index) offset reason }
