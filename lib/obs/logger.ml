type level = Debug | Info | Warn | Error
type field = Str of string | Int of int | Float of float | Bool of bool

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let current_level = ref Info
let json_mode = ref false

let output =
  ref (fun line ->
      prerr_string line;
      prerr_newline ();
      flush stderr)

let clock = ref Unix.gettimeofday

let set_level l = current_level := l
let level () = !current_level
let set_json b = json_mode := b
let set_output f = output := f
let set_clock f = clock := f

let timestamp now =
  let tm = Unix.gmtime now in
  let ms = int_of_float (Float.rem now 1. *. 1000.) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec (max 0 ms)

let field_value = function
  | Str s -> Jsonl.Str s
  | Int i -> Jsonl.Num (float_of_int i)
  | Float f when Float.is_finite f -> Jsonl.Num f
  | Float f -> Jsonl.Str (Printf.sprintf "%h" f)
  | Bool b -> Jsonl.Bool b

let field_text = function
  | Str s ->
    if String.contains s ' ' || String.contains s '"' then
      Printf.sprintf "%S" s
    else s
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.9g" f
  | Bool b -> string_of_bool b

let render lvl ts msg fields =
  if !json_mode then
    Jsonl.to_string
      (Jsonl.Obj
         (("ts", Jsonl.Str ts) :: ("level", Jsonl.Str (level_name lvl))
         :: ("msg", Jsonl.Str msg)
         :: List.map (fun (k, v) -> (k, field_value v)) fields))
  else begin
    let buf = Buffer.create 128 in
    Buffer.add_string buf
      (Printf.sprintf "%s %-5s %s" ts (level_name lvl) msg);
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf (Printf.sprintf " %s=%s" k (field_text v)))
      fields;
    Buffer.contents buf
  end

let log lvl ?(fields = []) msg =
  if severity lvl >= severity !current_level then
    !output (render lvl (timestamp (!clock ())) msg fields)

let debug ?fields msg = log Debug ?fields msg
let info ?fields msg = log Info ?fields msg
let warn ?fields msg = log Warn ?fields msg
let error ?fields msg = log Error ?fields msg

let logf lvl ?fields fmt =
  Format.kasprintf (fun msg -> log lvl ?fields msg) fmt
