module Tuple = Mdqa_relational.Tuple
module Value = Mdqa_relational.Value
module Chase = Mdqa_datalog.Chase

type record =
  | Fact of string * Tuple.t
  | Merge of { from_ : Value.t; into : Value.t }
  | Round of { merged : bool; stats : Chase.stats }

let magic = "MDQAJRNL"
let version = 1
let header_len = String.length magic + 4

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

type truncation = { offset : int; reason : string }

type read_result = {
  records : (int * record) list;
  truncation : truncation option;
  valid_bytes : int;
}

let pp_truncation ppf t =
  Format.fprintf ppf "byte %d: %s" t.offset t.reason

let read ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e ->
    { records = [];
      truncation =
        Some { offset = 0; reason = "unreadable journal: " ^ e };
      valid_bytes = 0 }
  | exception End_of_file ->
    { records = [];
      truncation =
        Some
          { offset = 0;
            reason =
              "unreadable journal: file shrank mid-read (concurrent \
               truncation)" };
      valid_bytes = 0 }
  | data ->
    let len = String.length data in
    if len < header_len || String.sub data 0 (String.length magic) <> magic
    then
      { records = [];
        truncation =
          Some { offset = 0; reason = "bad or truncated journal header" };
        valid_bytes = 0 }
    else begin
      let ver =
        let r = Binio.reader ~offset:(String.length magic)
            (String.sub data (String.length magic) 4) in
        Binio.read_u32 r
      in
      if ver <> version then
        { records = [];
          truncation =
            Some
              { offset = String.length magic;
                reason =
                  Printf.sprintf "unsupported journal version %d (want %d)"
                    ver version };
          valid_bytes = 0 }
      else begin
        let records = ref [] in
        let pos = ref header_len in
        let stop = ref None in
        (* Walk frames; the first frame that does not fully check out
           truncates recovery at its first byte. *)
        while !stop = None && !pos < len do
          let start = !pos in
          let bad reason = stop := Some { offset = start; reason } in
          if len - start < 8 then bad "torn record frame (header cut short)"
          else begin
            let hdr = Binio.reader ~offset:start (String.sub data start 8) in
            let plen = Binio.read_u32 hdr in
            let crc = Binio.read_u32 hdr in
            if len - start - 8 < plen then
              bad
                (Printf.sprintf
                   "torn record: payload claims %d bytes, %d remain" plen
                   (len - start - 8))
            else begin
              let payload = String.sub data (start + 8) plen in
              if Crc32.digest payload <> crc then
                bad "record checksum mismatch"
              else
                match
                  let r = Binio.reader ~offset:(start + 8) payload in
                  let rec_ = decode_payload r in
                  if not (Binio.at_end r) then
                    raise
                      (Binio.Corrupt
                         { offset = start + 8 + Binio.pos r;
                           reason = "trailing bytes inside record" });
                  rec_
                with
                | rec_ ->
                  records := (start, rec_) :: !records;
                  pos := start + 8 + plen
                | exception Binio.Corrupt { reason; _ } -> bad reason
            end
          end
        done;
        { records = List.rev !records;
          truncation = !stop;
          valid_bytes = !pos }
      end
    end
