module Value = Mdqa_relational.Value
module Tuple = Mdqa_relational.Tuple
module Attribute = Mdqa_relational.Attribute
module Rel_schema = Mdqa_relational.Rel_schema
module Relation = Mdqa_relational.Relation
module Instance = Mdqa_relational.Instance

exception Corrupt of { offset : int; reason : string }

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
  | Value.Sym s ->
    u8 b 0;
    str b s
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

(* --- reading --------------------------------------------------------- *)

type reader = { data : string; mutable p : int; base : int }

let reader ?(offset = 0) data = { data; p = 0; base = offset }
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

let read_u32 r =
  need r 4;
  let b k = Char.code r.data.[r.p + k] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
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
  | 0 -> Value.Sym (read_str r)
  | 1 -> Value.Int (read_i64 r)
  | 2 -> Value.Real (read_f64 r)
  | 3 -> Value.Null (read_i64 r)
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
