module Value = Mdqa_relational.Value
module Tuple = Mdqa_relational.Tuple
module Relation = Mdqa_relational.Relation

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
  numbered : (string, int) Hashtbl.t;  (* statements named so far, by kind *)
  sym : string -> Value.t;  (* this parse's symbols *)
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

(* the value of a constant token *)
let constant st = function
  | Lexer.IDENT s | Lexer.STRING s -> Some (st.sym s)
  | Lexer.INT i -> Some (Value.int i)
  | Lexer.FLOAT f -> Some (Value.real f)
  | _ -> None

(* term := VAR | IDENT | STRING | INT | FLOAT *)
let parse_term st =
  let t, pos = peek st in
  match t, constant st t with
  | Lexer.VAR v, _ ->
    advance st;
    Term.Var v
  | _, Some c ->
    advance st;
    Term.Const c
  | _ ->
    fail_at pos
      (Printf.sprintf "expected a term but found %s" (Lexer.token_to_string t))

(* consume a ',' if it is next *)
let comma st =
  match peek st with
  | Lexer.COMMA, _ ->
    advance st;
    true
  | _ -> false

(* atom := IDENT '(' terms ')'

   Constants go straight into a tuple, so a fact never becomes an
   [Atom.t]: from the first variable on, the arguments are terms. *)
type atom = Ground of string * Tuple.t | Open of Atom.t

let parse_ground_or_atom st =
  let t, pos = peek st in
  match t with
  | Lexer.IDENT pred ->
    advance st;
    expect st Lexer.LPAREN "'('";
    let rec values vs =
      match constant st (fst (peek st)) with
      | None -> terms (List.map Term.const vs)
      | Some v ->
        advance st;
        if comma st then values (v :: vs)
        else Ground (pred, Tuple.of_list (List.rev (v :: vs)))
    and terms ts =
      let ts = parse_term st :: ts in
      if comma st then terms ts else Open (Atom.make pred (List.rev ts))
    in
    let atom =
      match peek st with
      | Lexer.RPAREN, _ -> Ground (pred, Tuple.of_list [])
      | _ -> values []
    in
    expect st Lexer.RPAREN "')'";
    atom
  | other ->
    fail_at pos
      (Printf.sprintf "expected a predicate but found %s"
         (Lexer.token_to_string other))

let to_atom = function Ground (p, t) -> Atom.of_fact p t | Open a -> a
let parse_atom st = to_atom (parse_ground_or_atom st)

let cmp_op_of_token = function
  | Lexer.EQ -> Some Atom.Cmp.Eq
  | Lexer.NEQ -> Some Atom.Cmp.Neq
  | Lexer.LT -> Some Atom.Cmp.Lt
  | Lexer.LE -> Some Atom.Cmp.Le
  | Lexer.GT -> Some Atom.Cmp.Gt
  | Lexer.GE -> Some Atom.Cmp.Ge
  | _ -> None

(* literal := atom | term op term; an identifier leads an atom only
   when '(' follows it, else it is a comparison's symbol constant *)
let parse_literal st =
  match peek st with
  | Lexer.IDENT _, _ when peek2 st = Lexer.LPAREN -> `Atom (parse_atom st)
  | _ -> (
    let lhs = parse_term st in
    let op_tok, pos = peek st in
    match cmp_op_of_token op_tok with
    | Some op ->
      advance st;
      `Cmp (Atom.Cmp.make op lhs (parse_term st))
    | None ->
      fail_at pos
        (Printf.sprintf "expected a comparison operator, found %s"
           (Lexer.token_to_string op_tok)))

let parse_body st =
  let rec go atoms cmps =
    let atoms, cmps =
      match parse_literal st with
      | `Atom a -> (a :: atoms, cmps)
      | `Cmp c -> (atoms, c :: cmps)
    in
    if comma st then go atoms cmps else (List.rev atoms, List.rev cmps)
  in
  go [] []

type sink = string -> Tuple.t -> Lexer.pos -> unit

(* A predicate's facts: its relation, joined 4,096 new tuples at a time
   by one [Relation.of_tuples] and one [Relation.union], and its first
   fact. *)
type pred_facts = {
  rel : Relation.t;  (* the first fact fixes its arity *)
  at : Lexer.pos;  (* the first fact's position *)
  mutable uniform : bool;  (* every later fact had the first one's arity *)
  mutable run : Tuple.t list;  (* not yet in [rel] *)
  mutable pending : int;
}

type facts = {
  preds : (string, pred_facts) Hashtbl.t;
  mutable newest : pred_facts list;  (* newest predicate first *)
  replay : sink -> unit;
}

let facts replay = { preds = Hashtbl.create 16; newest = []; replay }

let flush f =
  if f.pending > 0 then begin
    Relation.(union f.rel (of_tuples (schema f.rel) f.run));
    f.run <- [];
    f.pending <- 0
  end

let add_fact facts pred tuple (pos : Lexer.pos) =
  let f =
    match facts.newest with
    | f :: _ when String.equal (Relation.name f.rel) pred -> f  (* a run *)
    | _ -> (
      match Hashtbl.find_opt facts.preds pred with
      | Some f -> f
      | None ->
        let rel = Relation.create (Program.schema pred (Tuple.arity tuple)) in
        let f = { rel; at = pos; uniform = true; run = []; pending = 0 } in
        Hashtbl.add facts.preds pred f;
        facts.newest <- f :: facts.newest;
        f)
  in
  if Tuple.arity tuple <> Relation.arity f.rel then f.uniform <- false
  else begin
    f.run <- tuple :: f.run;
    f.pending <- f.pending + 1;
    if f.pending = 4096 then flush f
  end

let firsts facts = List.rev facts.newest

let fact_relations facts =
  List.map
    (fun f ->
      flush f;
      f.rel)
    (firsts facts)

let replay_facts facts sink = facts.replay sink

type statement =
  | S_tgd of Tgd.t
  | S_egd of Egd.t
  | S_nc of Nc.t
  | S_query of Query.t

(* Construction-time failures (non-ground facts, unsafe queries, empty
   bodies) are statement-level semantic errors: code E003, located at
   the statement's first token.  A statement built is [Some]. *)
let wrap_invalid pos f =
  try Some (f ()) with Invalid_argument m -> fail_at ~code:"E003" pos m

(* Rules, constraints and anonymous queries get [prefix] suffixed with
   their number among the statements of their [kind] in this parse, so
   one input always gets the same names.  Rules are named after their
   head predicate, for readable diagnostics and provenance. *)
let fresh_name st kind prefix =
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt st.numbered kind) in
  Hashtbl.replace st.numbered kind n;
  prefix ^ string_of_int n

let rule_name st head =
  fresh_name st "rule"
    (match head with a :: _ -> Atom.pred a ^ "/" | [] -> "rule/")

(* statement :=
   | '!' ':-' body '.'
   | '?' [atom] ':-' body '.'  |  '?' atom-with-head-vars ':-' body '.'
   | VAR '=' term ':-' body '.'
   | atoms '.'                        (fact, single ground atom)
   | atoms ':-' body '.'              (TGD, multi-atom head)
   A fact goes to [fact], and the result is [None]. *)
let statement fact st =
  let t, pos = peek st in
  match t with
  | Lexer.BANG ->
    advance st;
    expect st Lexer.TURNSTILE "':-'";
    let atoms, cmps = parse_body st in
    expect st Lexer.PERIOD "'.'";
    if atoms = [] then
      fail_at ~code:"E003" pos "constraint body needs at least one atom";
    let name = fresh_name st "nc" "nc" in
    wrap_invalid pos (fun () -> S_nc (Nc.make ~name ~cmps atoms))
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
    let name =
      match name with Some n -> n | None -> fresh_name st "q" "q"
    in
    wrap_invalid pos (fun () -> S_query (Query.make ~name ~cmps ~head atoms))
  | Lexer.VAR v ->
    advance st;
    expect st Lexer.EQ "'='";
    let rhs = parse_term st in
    expect st Lexer.TURNSTILE "':-'";
    let atoms, cmps = parse_body st in
    expect st Lexer.PERIOD "'.'";
    if cmps <> [] then
      fail_at ~code:"E003" pos "EGD bodies cannot contain comparisons";
    let name = fresh_name st "egd" "egd" in
    wrap_invalid pos (fun () ->
        S_egd (Egd.make ~name ~body:atoms (Term.Var v) rhs))
  | Lexer.IDENT _ -> (
    match parse_ground_or_atom st with
    | Ground (pred, tuple) when fst (peek st) = Lexer.PERIOD ->
      advance st;
      fact pred tuple pos;
      None
    | first -> (
      let rec more acc =
        if comma st then more (parse_atom st :: acc) else List.rev acc
      in
      let head = to_atom first :: more [] in
      match peek st with
      | Lexer.PERIOD, _ ->
        advance st;
        (match head with
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
            S_tgd (Tgd.make ~name:(rule_name st head) ~body:atoms ~head ()))
      | other, p ->
        fail_at p
          (Printf.sprintf "expected '.' or ':-', found %s"
             (Lexer.token_to_string other))))
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

let init sym diags input =
  let next = Lexer.stream diags input in
  let cur = next () in
  { next; cur; ahead = None; last = (Lexer.EOF, { Lexer.line = 1; col = 1 });
    numbered = Hashtbl.create 4; sym }

let pos st = snd (peek st)
let error st message = fail_at (pos st) message

type located_statement = { stmt : statement; pos : Lexer.pos }

(* Recovery-mode loop over a whole input: every error an item raises
   becomes a diagnostic and parsing resumes at the next item, so one
   pass reports them all. *)
let parse_items ?(sym = Value.interner ()) diags input extra fact =
  let st = init sym diags input in
  let out = ref [] in
  let item () =
    let pos = pos st in
    if not (extra st) then
      Option.iter
        (fun stmt -> out := { stmt; pos } :: !out)
        (statement fact st)
  in
  let rec go () =
    match peek st with
    | Lexer.EOF, _ -> ()
    | _, start -> (
      match item () with
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
  go ();
  List.rev !out

let no_declarations _ = false

let parse_statements diags input =
  let facts =
    facts (fun sink ->
        ignore (parse_items (Diag.collector ()) input no_declarations sink))
  in
  (parse_items diags input no_declarations (add_fact facts), facts)

let statement_atoms = function
  | S_tgd t -> t.Tgd.body @ t.Tgd.head
  | S_egd e -> e.Egd.body
  | S_nc n -> n.Nc.body
  | S_query q -> q.Query.body

(* Arity consistency across every atom and fact of the input, reported
   per clashing statement or fact — unlike [Program.make], which aborts
   on the first inconsistency with no location.  The first use of a
   predicate, [declared] ones first, then in source order, fixes its
   arity. *)
let check_arities ~declared diags statements facts =
  let seen = Hashtbl.create 64 in
  let clash (pos : Lexer.pos) p k (k', (first : Lexer.pos)) =
    Diag.errorf diags ~line:pos.line ~col:pos.col ~code:"E011"
      "predicate %s used with arity %d here but arity %d at line %d" p k k'
      first.line
  in
  let see pos p k =
    match Hashtbl.find_opt seen p with
    | None -> Hashtbl.add seen p (k, pos)
    | Some ((k', _) as first) -> if k <> k' then clash pos p k first
  in
  List.iter (fun (p, k, pos) -> see pos p k) declared;
  (* a predicate's first fact claims it unless a statement did earlier;
     the firsts are in source order *)
  let unclaimed = ref (firsts facts) in
  let rec claim_before pos =
    match !unclaimed with
    | f :: rest when compare f.at pos < 0 ->
      let p = Relation.name f.rel in
      if not (Hashtbl.mem seen p) then
        Hashtbl.add seen p (Relation.arity f.rel, f.at);
      unclaimed := rest;
      claim_before pos
    | _ -> ()
  in
  List.iter
    (fun { stmt; pos } ->
      claim_before pos;
      List.iter
        (fun a -> see pos (Atom.pred a) (Atom.arity a))
        (statement_atoms stmt))
    statements;
  claim_before { Lexer.line = max_int; col = max_int };
  (* only when some fact clashes are the facts read again, positioned *)
  if
    List.exists
      (fun f ->
        let k, _ = Hashtbl.find seen (Relation.name f.rel) in
        not (f.uniform && Relation.arity f.rel = k))
      (firsts facts)
  then
    replay_facts facts (fun p t pos ->
        match Hashtbl.find_opt seen p with
        | Some ((k, _) as first) when Tuple.arity t <> k ->
          clash pos p (Tuple.arity t) first
        | _ -> ())

let program_of_statements diags statements facts =
  let tgds = ref [] and egds = ref [] in
  let ncs = ref [] and queries = ref [] in
  List.iter
    (fun { stmt; _ } ->
      match stmt with
      | S_tgd t -> tgds := t :: !tgds
      | S_egd e -> egds := e :: !egds
      | S_nc n -> ncs := n :: !ncs
      | S_query q -> queries := q :: !queries)
    statements;
  match
    Program.of_relations ~tgds:(List.rev !tgds) ~egds:(List.rev !egds)
      ~ncs:(List.rev !ncs) (fact_relations facts)
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
  let statements, facts = parse_statements diags input in
  check_arities ~declared:[] diags statements facts;
  let parsed =
    if Diag.has_errors diags then None
    else program_of_statements diags statements facts
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
  let statements, facts =
    Mdqa_obs.Trace.with_span "parse" @@ fun () ->
    let diags = Diag.collector () in
    let statements, facts = parse_statements diags input in
    check_arities ~declared:[] diags statements facts;
    fail_fast
      (if Diag.has_errors diags then None else Some (statements, facts))
      (Diag.to_list diags)
  in
  match statements, firsts facts with
  | [ { stmt = S_query q; _ } ], [] -> q
  | _ ->
    raise
      (Error
         { line = 1; col = 0; code = "E002";
           message = "expected exactly one query" })
