module Relation = Mdqa_relational.Relation
module Tuple = Mdqa_relational.Tuple
module Value = Mdqa_relational.Value

(* Symbols must re-lex as IDENT (lowercase start, identifier chars, no
   internal '.' ambiguity); anything else is emitted as a quoted
   string. *)
let symbol_needs_quotes s =
  s = ""
  || (match s.[0] with 'a' .. 'z' -> false | _ -> true)
  || not
       (String.for_all
          (function
            | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '/' | ':' ->
              true
            | _ -> false)
          s)

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      if c = '"' then Buffer.add_string buf "\"\""
      else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let value ppf = function
  | Value.Sym { name = s; _ } ->
    Format.pp_print_string ppf (if symbol_needs_quotes s then quote s else s)
  | Value.Int i -> Format.pp_print_int ppf i
  | Value.Real r ->
    (* "%F" prints 38.0 as "38.", which the lexer would read as an
       integer followed by the clause terminator *)
    let s = Printf.sprintf "%F" r in
    let s =
      if String.length s > 0 && s.[String.length s - 1] = '.' then s ^ "0"
      else s
    in
    Format.pp_print_string ppf s
  | Value.Null k ->
    (* nulls have no surface syntax; emit a reserved quoted form *)
    Format.pp_print_string ppf (quote (Printf.sprintf "_:%d" k))

let term ppf = function
  | Term.Var v -> Format.pp_print_string ppf v
  | Term.Const c -> value ppf c

let comma_sep pp ppf l =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp ppf l

let atom ppf a = Format.fprintf ppf "%s(%a)" (Atom.pred a) (comma_sep term) (Atom.args a)

let cmp ppf (c : Atom.Cmp.t) =
  Format.fprintf ppf "%a %s %a" term c.Atom.Cmp.lhs
    (Atom.Cmp.op_to_string c.Atom.Cmp.op)
    term c.Atom.Cmp.rhs

let body ppf (atoms, cmps) =
  comma_sep atom ppf atoms;
  List.iter (fun c -> Format.fprintf ppf ", %a" cmp c) cmps

let tgd ppf (t : Tgd.t) =
  Format.fprintf ppf "%a :- %a." (comma_sep atom) t.Tgd.head body
    (t.Tgd.body, [])

let egd ppf (e : Egd.t) =
  Format.fprintf ppf "%a = %a :- %a." term e.Egd.lhs term e.Egd.rhs body
    (e.Egd.body, [])

let nc ppf (n : Nc.t) =
  Format.fprintf ppf "! :- %a." body (n.Nc.body, n.Nc.cmps)

let query ppf (q : Query.t) =
  if Query.is_boolean q then
    Format.fprintf ppf "? :- %a." body (q.Query.body, q.Query.cmps)
  else
    Format.fprintf ppf "?%s(%a) :- %a." q.Query.name (comma_sep term)
      q.Query.head body
      (q.Query.body, q.Query.cmps)

let fact ppf (pred, t) =
  Format.fprintf ppf "%s(%a)." pred (comma_sep value) (Tuple.to_list t)

let program ppf (p : Program.t) =
  let pr pp_item items =
    List.iter (fun x -> Format.fprintf ppf "%a@," pp_item x) items
  in
  Format.fprintf ppf "@[<v>";
  let tuple r t = Format.fprintf ppf "%a@," fact (Relation.name r, t) in
  List.iter (fun r -> Relation.iter (tuple r) r) p.Program.facts;
  pr tgd p.Program.tgds;
  pr egd p.Program.egds;
  pr nc p.Program.ncs;
  Format.fprintf ppf "@]"

let program_to_string p = Format.asprintf "%a" program p
let query_to_string q = Format.asprintf "%a" query q
