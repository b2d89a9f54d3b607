let needs_quote s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let cell_of_value v =
  let s = Value.to_string v in
  if needs_quote s then quote s else s

let value_of_cell s = Value.of_string s

(* Split one CSV line honouring double-quoted cells. *)
let split_line line =
  let n = String.length line in
  let cells = ref [] in
  let buf = Buffer.create 16 in
  let rec go i in_quotes =
    if i >= n then begin
      cells := Buffer.contents buf :: !cells
    end
    else
      let c = line.[i] in
      if in_quotes then
        if c = '"' then
          if i + 1 < n && line.[i + 1] = '"' then begin
            Buffer.add_char buf '"';
            go (i + 2) true
          end
          else go (i + 1) false
        else begin
          Buffer.add_char buf c;
          go (i + 1) true
        end
      else if c = '"' then go (i + 1) true
      else if c = ',' then begin
        cells := Buffer.contents buf :: !cells;
        Buffer.clear buf;
        go (i + 1) false
      end
      else begin
        Buffer.add_char buf c;
        go (i + 1) false
      end
  in
  go 0 false;
  List.rev !cells

let relation_to_string r =
  let s = Relation.schema r in
  let buf = Buffer.create 256 in
  let header =
    List.map
      (fun a ->
        let n = Attribute.name a in
        if needs_quote n then quote n else n)
      (Rel_schema.attributes s)
  in
  Buffer.add_string buf (String.concat "," header);
  Buffer.add_char buf '\n';
  Relation.iter
    (fun t ->
      Buffer.add_string buf
        (String.concat "," (List.map cell_of_value (Tuple.to_list t)));
      Buffer.add_char buf '\n')
    r;
  Buffer.contents buf

type error = {
  row : int;  (* 1-based file line; the header is line 1 *)
  col : int;  (* 1-based cell index; 0 when the whole row is at fault *)
  message : string;
}

let relation_of_string_result ~name text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l ->
           (* tolerate CRLF; keep the absolute line number *)
           let l =
             if l <> "" && l.[String.length l - 1] = '\r' then
               String.sub l 0 (String.length l - 1)
             else l
           in
           (i + 1, l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  match lines with
  | [] ->
    Error [ { row = 1; col = 0; message = "empty input: a header line with attribute names is required" } ]
  | (hrow, header) :: rows -> (
    let attrs = List.map Attribute.plain (split_line header) in
    match Rel_schema.make name attrs with
    | exception Invalid_argument m -> Error [ { row = hrow; col = 0; message = m } ]
    | schema ->
      let arity = Rel_schema.arity schema in
      let r = Relation.create schema in
      let errs = ref [] in
      List.iter
        (fun (row, line) ->
          let cells = split_line line in
          let k = List.length cells in
          if k <> arity then
            errs :=
              { row;
                col = min k arity + 1;
                message =
                  Printf.sprintf
                    "row has %d cells but the header (line %d) declares %d"
                    k hrow arity }
              :: !errs
          else
            ignore
              (Relation.add r (Tuple.of_list (List.map value_of_cell cells))))
        rows;
      (match List.rev !errs with [] -> Ok r | errs -> Error errs))

let pp_error ppf e =
  Format.fprintf ppf "row %d, column %d: %s" e.row e.col e.message

let save_relation path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (relation_to_string r))

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      really_input_string ic n)

let load_relation_result ~name path =
  relation_of_string_result ~name (read_file path)
