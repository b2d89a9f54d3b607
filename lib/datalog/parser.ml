module Value = Mdqa_relational.Value

type parsed = {
  program : Program.t;
  queries : Query.t list;
}

exception
  Error of { line : int; col : int; code : string; message : string }

type state = {
  next : unit -> Lexer.token * Lexer.pos;  (* {!Lexer.stream} *)
  mutable cur : Lexer.token * Lexer.pos;
  mutable ahead : (Lexer.token * Lexer.pos) option;  (* after [cur] *)
  mutable last : Lexer.token * Lexer.pos;  (* the last consumed token *)
}

let fail_at ?(code = "E002") (pos : Lexer.pos) message =
  raise (Error { line = pos.Lexer.line; col = pos.Lexer.col; code; message })

let peek st = st.cur

let peek2 st =
  match st.ahead with
  | Some (t, _) -> t
  | None ->
    let tok = st.next () in
    st.ahead <- Some tok;
    fst tok

let advance st =
  st.last <- st.cur;
  match st.ahead with
  | Some tok ->
    st.cur <- tok;
    st.ahead <- None
  | None -> st.cur <- st.next ()

let expect st tok what =
  let t, pos = peek st in
  if t = tok then advance st
  else
    fail_at pos
      (Printf.sprintf "expected %s but found %s" what
         (Lexer.token_to_string t))

(* term := VAR | IDENT | STRING | INT | FLOAT *)
let parse_term st =
  let t, pos = peek st in
  match t with
  | Lexer.VAR v ->
    advance st;
    Term.Var v
  | Lexer.IDENT s ->
    advance st;
    Term.Const (Value.sym s)
  | Lexer.STRING s ->
    advance st;
    Term.Const (Value.sym s)
  | Lexer.INT i ->
    advance st;
    Term.Const (Value.int i)
  | Lexer.FLOAT f ->
    advance st;
    Term.Const (Value.real f)
  | other ->
    fail_at pos
      (Printf.sprintf "expected a term but found %s"
         (Lexer.token_to_string other))

let parse_term_list st =
  let rec go acc =
    let t = parse_term st in
    match peek st with
    | Lexer.COMMA, _ ->
      advance st;
      go (t :: acc)
    | _ -> List.rev (t :: acc)
  in
  go []

(* atom := IDENT '(' terms ')' *)
let parse_atom st =
  let t, pos = peek st in
  match t with
  | Lexer.IDENT pred ->
    advance st;
    expect st Lexer.LPAREN "'('";
    let args =
      match peek st with
      | Lexer.RPAREN, _ -> []
      | _ -> parse_term_list st
    in
    expect st Lexer.RPAREN "')'";
    Atom.make pred args
  | other ->
    fail_at pos
      (Printf.sprintf "expected a predicate but found %s"
         (Lexer.token_to_string other))

let cmp_op_of_token = function
  | Lexer.EQ -> Some Atom.Cmp.Eq
  | Lexer.NEQ -> Some Atom.Cmp.Neq
  | Lexer.LT -> Some Atom.Cmp.Lt
  | Lexer.LE -> Some Atom.Cmp.Le
  | Lexer.GT -> Some Atom.Cmp.Gt
  | Lexer.GE -> Some Atom.Cmp.Ge
  | _ -> None

(* literal := atom | term op term *)
let parse_literal st =
  let t, _ = peek st in
  match t with
  | Lexer.IDENT _ -> (
    (* could still be a comparison whose lhs is a symbol constant:
       look ahead past the identifier *)
    match peek2 st with
    | Lexer.LPAREN -> `Atom (parse_atom st)
    | _ ->
      let lhs = parse_term st in
      let op_tok, pos = peek st in
      (match cmp_op_of_token op_tok with
       | Some op ->
         advance st;
         let rhs = parse_term st in
         `Cmp (Atom.Cmp.make op lhs rhs)
       | None ->
         fail_at pos
           (Printf.sprintf "expected a comparison operator, found %s"
              (Lexer.token_to_string op_tok))))
  | _ ->
    let lhs = parse_term st in
    let op_tok, pos = peek st in
    (match cmp_op_of_token op_tok with
     | Some op ->
       advance st;
       let rhs = parse_term st in
       `Cmp (Atom.Cmp.make op lhs rhs)
     | None ->
       fail_at pos
         (Printf.sprintf "expected a comparison operator, found %s"
            (Lexer.token_to_string op_tok)))

let parse_body st =
  let rec go atoms cmps =
    (match parse_literal st with
     | `Atom a -> go_next (a :: atoms) cmps
     | `Cmp c -> go_next atoms (c :: cmps))
  and go_next atoms cmps =
    match peek st with
    | Lexer.COMMA, _ ->
      advance st;
      go atoms cmps
    | _ -> (List.rev atoms, List.rev cmps)
  in
  go [] []

type statement =
  | S_fact of Atom.t
  | S_tgd of Tgd.t
  | S_egd of Egd.t
  | S_nc of Nc.t
  | S_query of Query.t

(* Construction-time failures (non-ground facts, unsafe queries, empty
   bodies) are statement-level semantic errors: code E003, located at
   the statement's first token. *)
let wrap_invalid pos f =
  try f () with Invalid_argument m -> fail_at ~code:"E003" pos m

(* Parsed rules are named after their head predicate (for readable
   diagnostics and provenance), suffixed for uniqueness. *)
let rule_counter = ref 0

let rule_name head =
  incr rule_counter;
  match head with
  | a :: _ -> Printf.sprintf "%s/%d" (Atom.pred a) !rule_counter
  | [] -> Printf.sprintf "rule/%d" !rule_counter

(* statement :=
   | '!' ':-' body '.'
   | '?' [atom] ':-' body '.'  |  '?' atom-with-head-vars ':-' body '.'
   | VAR '=' term ':-' body '.'
   | atoms '.'                        (fact, single ground atom)
   | atoms ':-' body '.'              (TGD, multi-atom head) *)
let parse_statement st =
  let t, pos = peek st in
  match t with
  | Lexer.BANG ->
    advance st;
    expect st Lexer.TURNSTILE "':-'";
    let atoms, cmps = parse_body st in
    expect st Lexer.PERIOD "'.'";
    if atoms = [] then
      fail_at ~code:"E003" pos "constraint body needs at least one atom";
    wrap_invalid pos (fun () -> S_nc (Nc.make ~cmps atoms))
  | Lexer.QMARK ->
    advance st;
    let name, head =
      match peek st with
      | Lexer.TURNSTILE, _ -> (None, [])
      | Lexer.IDENT _, _ ->
        let a = parse_atom st in
        (Some (Atom.pred a), Atom.args a)
      | other, p ->
        fail_at p
          (Printf.sprintf "expected query head or ':-', found %s"
             (Lexer.token_to_string other))
    in
    expect st Lexer.TURNSTILE "':-'";
    let atoms, cmps = parse_body st in
    expect st Lexer.PERIOD "'.'";
    if atoms = [] then
      fail_at ~code:"E003" pos "query body needs at least one atom";
    wrap_invalid pos (fun () -> S_query (Query.make ?name ~cmps ~head atoms))
  | Lexer.VAR v ->
    advance st;
    expect st Lexer.EQ "'='";
    let rhs = parse_term st in
    expect st Lexer.TURNSTILE "':-'";
    let atoms, cmps = parse_body st in
    expect st Lexer.PERIOD "'.'";
    if cmps <> [] then
      fail_at ~code:"E003" pos "EGD bodies cannot contain comparisons";
    wrap_invalid pos (fun () -> S_egd (Egd.make ~body:atoms (Term.Var v) rhs))
  | Lexer.IDENT _ -> (
    let first = parse_atom st in
    let rec more acc =
      match peek st with
      | Lexer.COMMA, _ ->
        advance st;
        more (parse_atom st :: acc)
      | _ -> List.rev acc
    in
    let head = first :: more [] in
    match peek st with
    | Lexer.PERIOD, _ ->
      advance st;
      (match head with
       | [ a ] when Atom.is_ground a -> S_fact a
       | [ _ ] -> fail_at ~code:"E003" pos "facts must be ground"
       | _ -> fail_at ~code:"E003" pos "a fact is a single ground atom")
    | Lexer.TURNSTILE, _ ->
      advance st;
      let atoms, cmps = parse_body st in
      expect st Lexer.PERIOD "'.'";
      if cmps <> [] then
        fail_at ~code:"E003" pos "TGD bodies cannot contain comparisons";
      if atoms = [] then
        fail_at ~code:"E003" pos "TGD body needs at least one atom";
      wrap_invalid pos (fun () ->
          S_tgd (Tgd.make ~name:(rule_name head) ~body:atoms ~head ()))
    | other, p ->
      fail_at p
        (Printf.sprintf "expected '.' or ':-', found %s"
           (Lexer.token_to_string other)))
  | other ->
    fail_at pos
      (Printf.sprintf "expected a statement but found %s"
         (Lexer.token_to_string other))

(* Resynchronization point for error recovery: consume tokens up to
   and including the next '.', but stop (without consuming) at '}' or
   EOF so enclosing parsers — e.g. a dimension body — can close. *)
let recover st =
  let rec go () =
    match peek st with
    | Lexer.EOF, _ | Lexer.RBRACE, _ -> ()
    | Lexer.PERIOD, _ -> advance st
    | _ ->
      advance st;
      go ()
  in
  go ()

(* Recovery-mode loop over a whole input: every error [item] raises
   becomes a diagnostic and parsing resumes at the next statement, so
   one pass reports them all. *)
let items diags st item =
  let rec go () =
    match peek st with
    | Lexer.EOF, _ -> ()
    | _, start -> (
      match item st with
      | () -> go ()
      | exception Error { line; col; code; message } ->
        Diag.error diags ~line ~col ~code message;
        (* if no token was consumed (e.g. a stray '}'), drop one so
           recovery always makes progress *)
        if snd (peek st) = start then advance st;
        (* an error raised after the statement's '.' (a non-ground
           fact, an invalid relation) leaves the next statement
           intact: resyncing would swallow it *)
        if fst st.last <> Lexer.PERIOD then begin
          recover st;
          (* a '}' left over from a broken dimension body would
             otherwise cascade into a statement error *)
          match peek st with Lexer.RBRACE, _ -> advance st | _ -> ()
        end;
        go ())
  in
  go ()

module Raw = struct
  type nonrec state = state

  let init diags input =
    let next = Lexer.stream diags input in
    let cur = next () in
    { next; cur; ahead = None;
      last = (Lexer.EOF, { Lexer.line = 1; col = 1 }) }

  let peek = peek
  let peek2 = peek2
  let pos st = snd (peek st)
  let advance = advance
  let expect = expect
  let recover = recover
  let error st message = fail_at (pos st) message
  let items = items

  type nonrec statement = statement =
    | S_fact of Atom.t
    | S_tgd of Tgd.t
    | S_egd of Egd.t
    | S_nc of Nc.t
    | S_query of Query.t

  let statement = parse_statement
end

type located_statement = { stmt : statement; pos : Lexer.pos }

let parse_statements diags input =
  let out = ref [] in
  items diags (Raw.init diags input) (fun st ->
      let pos = Raw.pos st in
      out := { stmt = parse_statement st; pos } :: !out);
  List.rev !out

module Smap = Map.Make (String)

let statement_atoms = function
  | S_fact f -> [ f ]
  | S_tgd t -> t.Tgd.body @ t.Tgd.head
  | S_egd e -> e.Egd.body
  | S_nc n -> n.Nc.body
  | S_query q -> q.Query.body

(* Arity consistency across every atom of the input, reported per
   clashing statement — unlike [Program.make], which aborts on the
   first inconsistency with no location.  The first use of a
   predicate, [declared] ones first, fixes its arity. *)
let check_arities ~declared diags statements =
  let see pos seen (p, k) =
    match Smap.find_opt p seen with
    | None -> Smap.add p (k, pos) seen
    | Some (k', first) ->
      if k <> k' then
        Diag.errorf diags ~line:pos.Lexer.line ~col:pos.Lexer.col ~code:"E011"
          "predicate %s used with arity %d here but arity %d at line %d" p k
          k' first.Lexer.line;
      seen
  in
  let seen =
    List.fold_left (fun seen (p, k, pos) -> see pos seen (p, k)) Smap.empty
      declared
  in
  ignore
    (List.fold_left
       (fun seen { stmt; pos } ->
         List.fold_left
           (fun seen a -> see pos seen (Atom.pred a, Atom.arity a))
           seen (statement_atoms stmt))
       seen statements)

let program_of_statements diags statements =
  let facts = ref [] and tgds = ref [] and egds = ref [] in
  let ncs = ref [] and queries = ref [] in
  List.iter
    (fun { stmt; _ } ->
      match stmt with
      | S_fact f -> facts := f :: !facts
      | S_tgd t -> tgds := t :: !tgds
      | S_egd e -> egds := e :: !egds
      | S_nc n -> ncs := n :: !ncs
      | S_query q -> queries := q :: !queries)
    statements;
  match
    Program.make ~tgds:(List.rev !tgds) ~egds:(List.rev !egds)
      ~ncs:(List.rev !ncs) ~facts:(List.rev !facts) ()
  with
  | p -> Some { program = p; queries = List.rev !queries }
  | exception Invalid_argument m ->
    (* normally pre-empted by [check_arities]; a safety net so assembly
       failures still surface as located diagnostics *)
    Diag.error diags ~line:1 ~code:"E003" m;
    None

let fail_fast parsed diags =
  match parsed with
  | Some p -> p
  | None -> (
    match List.find_opt (fun d -> d.Diag.severity = Diag.Error) diags with
    | Some { Diag.code; span = { Diag.line; col; _ }; message; _ } ->
      raise (Error { line; col; code; message })
    | None ->
      raise
        (Error { line = 1; col = 0; code = "E003"; message = "invalid input" }))

let parse_string input =
  Mdqa_obs.Trace.with_span "parse" @@ fun () ->
  let diags = Diag.collector () in
  let statements = parse_statements diags input in
  check_arities ~declared:[] diags statements;
  let parsed =
    if Diag.has_errors diags then None
    else program_of_statements diags statements
  in
  fail_fast parsed (Diag.to_list diags)

let parse_file path =
  parse_string (In_channel.with_open_bin path In_channel.input_all)

let parse_query input =
  let input = String.trim input in
  let input =
    if String.length input > 0 && input.[0] = '?' then input
    else "?" ^ input
  in
  let input =
    if String.length input > 0 && input.[String.length input - 1] = '.' then
      input
    else input ^ "."
  in
  match parse_string input with
  | { queries = [ q ]; program }
    when program.Program.tgds = [] && program.Program.facts = [] ->
    q
  | _ ->
    raise
      (Error
         { line = 1; col = 0; code = "E002";
           message = "expected exactly one query" })
