open Mdqa_datalog
open Mdqa_multidim
module R = Mdqa_relational
module Facts = Parser.Facts
module Trace = Mdqa_obs.Trace

type parsed = {
  ontology : Md_ontology.t;
  context : Context.t;
  source : R.Instance.t;
  queries : Query.t list;
}

type checked = {
  parsed : parsed option;
  diags : Diag.t list;
}

(* Intermediate, pre-assembly representation of the declarations.
   Every item carries the position of its declaration, so each
   validation failure is reported at its real source line — never at
   line 0. *)
type dim_decl = {
  dim_name : string;
  dim_pos : Lexer.pos;
  mutable cat_edges : (string * string * Lexer.pos) list;  (* child, parent *)
  mutable standalone : (string * Lexer.pos) list;
  mutable dmembers : (string * string * Lexer.pos) list;  (* member, category *)
  mutable links : (string * string * Lexer.pos) list;
      (* child member, parent member *)
}

type schema_kind = Relation | Source | External

let kind_name = function
  | Relation -> "relation"
  | Source -> "source"
  | External -> "external"

type decl =
  | Dimension of dim_decl
  | Schema of schema_kind * R.Rel_schema.t
  | Map of string * string  (* source relation, contextual copy *)
  | Quality of string * string  (* source relation, quality version *)

let fail st message = Parser.error st message

(* a name usable as a category / member / dimension *)
let name_token st what =
  match Parser.peek st with
  | Lexer.VAR s, _ | Lexer.IDENT s, _ | Lexer.STRING s, _ ->
    Parser.advance st;
    s
  | t, _ ->
    fail st
      (Printf.sprintf "expected %s, found %s" what (Lexer.token_to_string t))

let dotted_category st =
  let s = name_token st "Dimension.Category" in
  match String.split_on_char '.' s with
  | [ d; c ] when d <> "" && c <> "" -> (d, c)
  | _ ->
    fail st
      (Printf.sprintf "expected Dimension.Category, found %S" s)

let comma_list st parse_one =
  let rec go acc =
    let x = parse_one st in
    match Parser.peek st with
    | Lexer.COMMA, _ ->
      Parser.advance st;
      go (x :: acc)
    | _ -> List.rev (x :: acc)
  in
  go []

let keyword st = function
  | Lexer.IDENT k -> (
    match k with
    | "dimension" | "relation" | "source" | "external" | "map" | "quality"
    | "category" | "member" ->
      (* a declaration only when not immediately a predicate call *)
      (match Parser.peek2 st with Lexer.LPAREN -> None | _ -> Some k)
    | _ -> None)
  | _ -> None

let parse_dimension diags st =
  let dim_pos = Parser.pos st in
  Parser.advance st (* 'dimension' *);
  let dim_name = name_token st "a dimension name" in
  Parser.expect st Lexer.LBRACE "'{'";
  let d =
    { dim_name; dim_pos; cat_edges = []; standalone = []; dmembers = [];
      links = [] }
  in
  let item () =
    match Parser.peek st with
    | Lexer.IDENT "category", pos ->
      Parser.advance st;
      let child = name_token st "a category name" in
      (match Parser.peek st with
       | Lexer.ARROW, _ ->
         Parser.advance st;
         let parents = comma_list st (fun st -> name_token st "a category") in
         d.cat_edges <-
           List.rev_append (List.map (fun p -> (child, p, pos)) parents)
             d.cat_edges
       | _ -> d.standalone <- (child, pos) :: d.standalone);
      Parser.expect st Lexer.PERIOD "'.'"
    | Lexer.IDENT "member", pos ->
      Parser.advance st;
      let m = name_token st "a member name" in
      (match Parser.peek st with
       | Lexer.IDENT "in", _ -> Parser.advance st
       | t, _ ->
         fail st
           (Printf.sprintf "expected 'in', found %s"
              (Lexer.token_to_string t)));
      let cat = name_token st "a category" in
      d.dmembers <- (m, cat, pos) :: d.dmembers;
      (match Parser.peek st with
       | Lexer.ARROW, _ ->
         Parser.advance st;
         let parents = comma_list st (fun st -> name_token st "a member") in
         d.links <-
           List.rev_append (List.map (fun p -> (m, p, pos)) parents) d.links
       | _ -> ());
      Parser.expect st Lexer.PERIOD "'.'"
    | t, _ ->
      fail st
        (Printf.sprintf
           "expected 'category', 'member' or '}' in dimension body, found %s"
           (Lexer.token_to_string t))
  in
  (* Per-item recovery: one bad category/member line is reported and
     skipped; the rest of the dimension body still parses. *)
  let rec body () =
    match Parser.peek st with
    | Lexer.RBRACE, _ -> Parser.advance st
    | Lexer.EOF, _ -> fail st "unexpected end of input in dimension body"
    | _ ->
      let before = Parser.pos st in
      (try item ()
       with Parser.Error { line; col; code; message } ->
         Diag.error diags ~line ~col ~code message;
         if Parser.pos st = before then Parser.advance st;
         Parser.recover st);
      body ()
  in
  body ();
  Dimension
    { d with
      cat_edges = List.rev d.cat_edges;
      standalone = List.rev d.standalone;
      dmembers = List.rev d.dmembers;
      links = List.rev d.links }

let parse_relation st kind =
  let start = Parser.pos st in
  Parser.advance st (* 'relation' | 'source' | 'external' *);
  let name =
    match Parser.peek st with
    | Lexer.IDENT n, _ ->
      Parser.advance st;
      n
    | t, _ ->
      fail st
        (Printf.sprintf "expected a relation name, found %s"
           (Lexer.token_to_string t))
  in
  Parser.expect st Lexer.LPAREN "'('";
  let parse_attr st =
    match Parser.peek st with
    | Lexer.IDENT a, _ ->
      Parser.advance st;
      (match Parser.peek st with
       | Lexer.IDENT "in", _ ->
         Parser.advance st;
         let dimension, category = dotted_category st in
         R.Attribute.categorical a ~dimension ~category
       | _ -> R.Attribute.plain a)
    | t, _ ->
      fail st
        (Printf.sprintf "expected an attribute name, found %s"
           (Lexer.token_to_string t))
  in
  let attrs = comma_list st parse_attr in
  Parser.expect st Lexer.RPAREN "')'";
  Parser.expect st Lexer.PERIOD "'.'";
  match R.Rel_schema.make name attrs with
  | schema -> Schema (kind, schema)
  | exception Invalid_argument message ->
    raise
      (Parser.Error
         { line = start.Lexer.line; col = start.Lexer.col; code = "E018";
           message })

let parse_wiring st ~quality =
  Parser.advance st (* 'map' | 'quality' *);
  let from = name_token st "a relation name" in
  Parser.expect st Lexer.ARROW "'->'";
  let target = name_token st "a predicate name" in
  Parser.expect st Lexer.PERIOD "'.'";
  if quality then Quality (from, target) else Map (from, target)

(* The declarations and the Datalog± statements of an input, each in
   source order, and its facts: to the shared recovering loop a
   declaration is one more kind of item. *)
let collect diags input =
  let decls = ref [] in
  let statements, facts =
    Parser.parse_items diags input (fun st ->
        let pos = Parser.pos st in
        let decl d =
          decls := (d, pos) :: !decls;
          true
        in
        match keyword st (fst (Parser.peek st)) with
        | Some "dimension" -> decl (parse_dimension diags st)
        | Some "relation" -> decl (parse_relation st Relation)
        | Some "source" -> decl (parse_relation st Source)
        | Some "external" -> decl (parse_relation st External)
        | Some "map" -> decl (parse_wiring st ~quality:false)
        | Some "quality" -> decl (parse_wiring st ~quality:true)
        | Some k ->
          fail st (Printf.sprintf "'%s' is only allowed inside a dimension" k)
        | None -> false)
  in
  (List.rev !decls, statements, facts)

(* --- semantic validation ------------------------------------------- *)

module Smap = Map.Make (String)

type artifacts = {
  dim_instances : Dim_instance.t Smap.t;  (* only error-free dimensions *)
  schemas : (string, schema_kind * R.Rel_schema.t * Lexer.pos) Hashtbl.t;
      (* each declared name, at its first declaration *)
  md_schema : Md_schema.t option;
  md_rules : Tgd.t list;  (* every predicate is an MD predicate *)
  ctx_rules : Tgd.t list;
}

let err diags (pos : Lexer.pos) code fmt =
  Diag.errorf diags ~line:pos.Lexer.line ~col:pos.Lexer.col ~code fmt

let warn diags (pos : Lexer.pos) code fmt =
  Diag.warningf diags ~line:pos.Lexer.line ~col:pos.Lexer.col ~code fmt

let validate_dimension diags (d : dim_decl) =
  let edges =
    List.map (fun (c, p, _) -> (c, p)) d.cat_edges
    @ List.filter_map
        (fun (c, _) ->
          if List.exists (fun (a, b, _) -> a = c || b = c) d.cat_edges then
            None
          else Some (c, Dim_schema.all))
        d.standalone
  in
  match Dim_schema.make ~name:d.dim_name ~edges with
  | exception Invalid_argument m ->
    err diags d.dim_pos "E014" "%s" m;
    (None, None)
  | schema -> (
    (* one group per declared member, so a problem's member index is
       the declaration's index *)
    let members = List.map (fun (m, cat, _) -> (cat, [ m ])) d.dmembers
    and links = List.map (fun (c, p, _) -> (c, p)) d.links in
    match Dim_instance.check schema ~members ~links with
    | Error problems ->
      let positions l = Array.of_list (List.map (fun (_, _, pos) -> pos) l) in
      let member_pos = positions d.dmembers and link_pos = positions d.links in
      List.iter
        (fun p ->
          let pos, code =
            match p with
            | Dim_instance.Unknown_category { member; _ } ->
              (member_pos.(member), "E015")
            | Duplicate_member { member; _ } -> (member_pos.(member), "E016")
            | Unknown_member { link; _ } | Off_schema_link { link; _ } ->
              (link_pos.(link), "E017")
          in
          err diags pos code "%s" (Dim_instance.message schema p))
        problems;
      (Some schema, None)
    | Ok instance ->
      (* hierarchy quality warnings: strictness and homogeneity, each at
         its member's declaration (there is one, as [check] passed) *)
      let member_pos =
        lazy
          (let tbl = Hashtbl.create (List.length d.dmembers) in
           List.iter
             (fun (n, _, pos) -> Hashtbl.replace tbl (R.Value.sym n) (n, pos))
             d.dmembers;
           tbl)
      in
      let pos_of_member m = Hashtbl.find (Lazy.force member_pos) m in
      List.iter
        (function
          | Dim_instance.Non_strict
              { member; ancestor_category; ancestors; _ } ->
            let m, pos = pos_of_member member in
            warn diags pos "W043"
              "dimension %s is not strict: member %s rolls up to %d members \
               of %s (%s)"
              d.dim_name m (List.length ancestors) ancestor_category
              (String.concat ", " (List.map R.Value.to_string ancestors))
          | Non_covering { member; parent_category; _ } ->
            let m, pos = pos_of_member member in
            warn diags pos "W044"
              "dimension %s is not homogeneous: member %s has no parent in \
               category %s (roll-up is not total)"
              d.dim_name m parent_category)
        (Dim_instance.diagnose instance).violations;
      (Some schema, Some instance))

let validate diags decls statements facts =
  (* 1. dimensions *)
  let dims =
    List.filter_map (function Dimension d, _ -> Some d | _ -> None) decls
  in
  let dim_schemas = ref Smap.empty and dim_instances = ref Smap.empty in
  Trace.with_span "md_parser.dimensions" (fun () ->
      List.iter
        (fun (d : dim_decl) ->
          if Smap.mem d.dim_name !dim_schemas then
            err diags d.dim_pos "E010" "duplicate dimension %s" d.dim_name
          else begin
            let schema, instance = validate_dimension diags d in
            (match schema with
             | Some s -> dim_schemas := Smap.add d.dim_name s !dim_schemas
             | None -> ());
            match instance with
            | Some i -> dim_instances := Smap.add d.dim_name i !dim_instances
            | None -> ()
          end)
        dims);
  (* 2. relation / source / external namespaces are disjoint *)
  let schemas = Hashtbl.create 16 in
  List.iter
    (function
      | Schema (kind, s), pos -> (
        let n = R.Rel_schema.name s in
        match Hashtbl.find_opt schemas n with
        | Some (other, _, (first : Lexer.pos)) ->
          err diags pos "E010" "%s %s already declared as a %s at line %d"
            (kind_name kind) n (kind_name other) first.Lexer.line
        | None -> Hashtbl.add schemas n (kind, s, pos))
      | _ -> ())
    decls;
  (* 3. the MD schema itself *)
  let dims_in_order =
    (* first declaration of each name, when its schema built *)
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun (d : dim_decl) ->
        if Hashtbl.mem seen d.dim_name then None
        else begin
          Hashtbl.add seen d.dim_name ();
          Smap.find_opt d.dim_name !dim_schemas
        end)
      dims
  in
  let relations =
    List.filter_map
      (function Schema (Relation, s), _ -> Some s | _ -> None)
      decls
  in
  let md_schema =
    match Md_schema.check ~dimensions:dims_in_order ~relations with
    | Ok s when List.length dims_in_order = List.length dims -> Some s
    | Ok _ -> None
    | Error conflicts ->
      List.iter
        (fun { Md_schema.kind; subject; message } ->
          let pos =
            match Hashtbl.find_opt schemas subject with
            | Some (_, _, pos) -> pos
            | None -> (
              match
                List.find_opt
                  (fun (d : dim_decl) -> String.equal d.dim_name subject)
                  dims
              with
              | Some d -> d.dim_pos
              | None -> { Lexer.line = 1; col = 0 })
          in
          let code =
            match kind with
            | Md_schema.Unknown_dimension -> "E018"
            | Unknown_category -> "E015"
            | Name_clash -> "E010"
          in
          err diags pos code "%s" message)
        conflicts;
      None
  in
  (* 4. facts: declared predicates only *)
  let undeclared =
    List.filter (fun p -> not (Hashtbl.mem schemas p)) (Facts.preds facts)
  in
  if undeclared <> [] then
    Facts.iter
      (fun p _ loc ->
        if List.mem p undeclared then
          err diags (Facts.pos loc) "E013"
            "fact over undeclared predicate %s (declare it with 'relation', \
             'source' or 'external')"
            p)
      facts;
  (* 5. global arity consistency: the MD schema's predicates, then the
     declarations, then every fact and statement *)
  let md_preds =
    match md_schema with
    | None -> []
    | Some s ->
      let top = { Lexer.line = 1; col = 0 } in
      List.concat_map
        (fun d ->
          List.filter_map
            (fun c ->
              if c = Dim_schema.all then None
              else Some (Md_schema.category_pred c, 1, top))
            (Dim_schema.categories d)
          @ List.filter_map
              (fun (child, parent) ->
                if parent = Dim_schema.all then None
                else Some (Md_schema.parent_child_pred ~parent ~child, 2, top))
              (Dim_schema.edges d))
        (Md_schema.dimensions s)
  in
  Parser.check_arities diags statements facts
    ~declared:
      (md_preds
      @ List.filter_map
          (function
            | Schema (_, s), pos ->
              Some (R.Rel_schema.name s, R.Rel_schema.arity s, pos)
            | _ -> None)
          decls);
  let tgds =
    List.filter_map
      (function
        | { Parser.stmt = Parser.S_tgd t; pos } -> Some (t, pos) | _ -> None)
      statements
  in
  let queries =
    List.filter_map
      (function
        | { Parser.stmt = Parser.S_query q; pos } -> Some (q, pos) | _ -> None)
      statements
  in
  (* 6. rules and constraints against the MD schema *)
  let md_rules, ctx_rules =
    match md_schema with
    | None -> ([], [])
    | Some schema ->
      let md_pred p =
        Md_schema.relation schema p <> None
        || Md_schema.category_of_pred schema p <> None
        || Md_schema.parent_child_of_pred schema p <> None
      in
      let md_rules, ctx_rules =
        List.partition
          (fun ((t : Tgd.t), _) ->
            List.for_all md_pred (Tgd.body_preds t @ Tgd.head_preds t))
          tgds
      in
      List.iter
        (fun ((t : Tgd.t), pos) ->
          match Dim_rule.analyze schema t with
          | Ok _ -> ()
          | Error e ->
            err diags pos "E019" "dimensional rule %s: %s" t.Tgd.name e)
        md_rules;
      let md_body what name body pos =
        if not (List.for_all md_pred (List.map Atom.pred body)) then
          err diags pos "E020" "%s %s mentions non-dimensional predicates"
            what name
      in
      List.iter
        (function
          | { Parser.stmt = Parser.S_egd e; pos } ->
            md_body "EGD" e.Egd.name e.Egd.body pos
          | { Parser.stmt = Parser.S_nc n; pos } ->
            md_body "constraint" n.Nc.name n.Nc.body pos
          | _ -> ())
        statements;
      (* unknown predicates in rule and query bodies *)
      let known = Hashtbl.create 64 in
      let know n = Hashtbl.replace known n () in
      Hashtbl.iter (fun n _ -> know n) schemas;
      List.iter
        (function Map (_, t), _ | Quality (_, t), _ -> know t | _ -> ())
        decls;
      List.iter
        (function
          | { Parser.stmt = Parser.S_tgd t; _ } ->
            List.iter know (Tgd.head_preds t)
          | _ -> ())
        statements;
      List.iter know (Facts.preds facts);
      let check_known what name preds pos =
        List.iter
          (fun p ->
            if not (md_pred p || Hashtbl.mem known p) then
              err diags pos "E012"
                "%s %s references unknown predicate %s (not a declared \
                 relation, a generated category/roll-up predicate, a mapped \
                 copy, or the head of any rule)"
                what name p)
          preds
      in
      List.iter
        (fun ((t : Tgd.t), pos) ->
          check_known "rule" t.Tgd.name (Tgd.body_preds t) pos)
        tgds;
      List.iter
        (fun ((q : Query.t), pos) ->
          check_known "query" q.Query.name
            (List.map Atom.pred q.Query.body)
            pos)
        queries;
      (List.map fst md_rules, List.map fst ctx_rules)
  in
  (* 7. wiring: map / quality sources must be declared sources *)
  let check_wiring what entries =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (from, _target, pos) ->
        (match Hashtbl.find_opt schemas from with
         | Some (Source, _, _) -> ()
         | _ ->
           err diags pos "E021"
             "%s %s -> ... does not refer to a declared source relation" what
             from);
        if Hashtbl.mem seen from then
          err diags pos "E010" "duplicate %s for source %s" what from;
        Hashtbl.replace seen from ())
      entries
  in
  let maps =
    List.filter_map
      (function Map (f, t), pos -> Some (f, t, pos) | _ -> None)
      decls
  in
  let qualities =
    List.filter_map
      (function Quality (f, t), pos -> Some (f, t, pos) | _ -> None)
      decls
  in
  check_wiring "map" maps;
  check_wiring "quality" qualities;
  let head_preds =
    List.concat_map (fun ((t : Tgd.t), _) -> Tgd.head_preds t) tgds
  in
  let body_preds =
    List.concat_map (fun ((t : Tgd.t), _) -> Tgd.body_preds t) tgds
    @ List.concat_map
        (fun ((q : Query.t), _) -> List.map Atom.pred q.Query.body)
        queries
  in
  List.iter
    (fun (from, target, pos) ->
      if not (List.mem target head_preds) then
        warn diags pos "W042"
          "quality version %s of %s is not the head of any rule: it will \
           always be empty"
          target from)
    qualities;
  List.iter
    (fun (from, target, (pos : Lexer.pos)) ->
      if not (List.mem target body_preds) then
        Diag.hintf diags ~line:pos.Lexer.line ~col:pos.Lexer.col ~code:"H051"
          "mapped copy %s of %s is never used in a rule or query body" target
          from)
    maps;
  { dim_instances = !dim_instances; schemas; md_schema; md_rules; ctx_rules }

(* --- assembly (validated declarations only) ------------------------- *)

let build decls statements facts (arts : artifacts) =
  let md_schema =
    match arts.md_schema with
    | Some s -> s
    | None -> invalid_arg "Md_parser.build: unvalidated declarations"
  in
  let dim_instances =
    List.filter_map
      (function
        | Dimension d, _ -> Some (Smap.find d.dim_name arts.dim_instances)
        | _ -> None)
      decls
  in
  (* Facts. *)
  let data = R.Instance.create () in
  let source = R.Instance.create () in
  let externals = R.Instance.create () in
  List.iter
    (function
      | Schema (Source, s), _ -> ignore (R.Instance.declare source s)
      | Schema (External, s), _ -> ignore (R.Instance.declare externals s)
      | _ -> ())
    decls;
  let rel p =
    match Hashtbl.find_opt arts.schemas p with
    | Some (Relation, schema, _) -> R.Instance.declare data schema
    | Some (Source, _, _) -> R.Instance.get source p
    | Some (External, _, _) -> R.Instance.get externals p
    | None -> invalid_arg ("fact over undeclared predicate " ^ p)
  in
  Program.load (fun p _ -> rel p) (fun add ->
      Facts.iter (fun p t _ -> add p t) facts);
  let egds = ref [] and ncs = ref [] and queries = ref [] in
  List.iter
    (fun { Parser.stmt; _ } ->
      match stmt with
      | Parser.S_egd e -> egds := e :: !egds
      | Parser.S_nc n -> ncs := n :: !ncs
      | Parser.S_query q -> queries := q :: !queries
      | Parser.S_tgd _ -> ())
    statements;
  let ontology =
    Md_ontology.make ~schema:md_schema ~dim_instances ~data
      ~rules:arts.md_rules ~egds:(List.rev !egds) ~ncs:(List.rev !ncs) ()
  in
  let context =
    Context.make ~ontology
      ~mappings:
        (List.filter_map
           (function
             | Map (source, target), _ -> Some { Context.source; target }
             | _ -> None)
           decls)
      ~rules:arts.ctx_rules
      ~externals:(R.Instance.relations externals)
      ~quality_versions:
        (List.filter_map
           (function Quality (f, t), _ -> Some (f, t) | _ -> None)
           decls)
      ()
  in
  { ontology; context; source; queries = List.rev !queries }

(* Post-build advisory analyses: the weak-stickiness certificate and
   the closed-world referential check, as warnings/hints. *)
let advisory diags statements facts (p : parsed) =
  Validate.check_certificate diags statements (Context.program p.context);
  (* each fact's first position, per predicate, built on the first
     violation over that predicate *)
  let tables = Hashtbl.create 8 in
  let first_loc pred tuple =
    let tbl =
      match Hashtbl.find_opt tables pred with
      | Some tbl -> tbl
      | None ->
        let tbl = R.Tuple.Tbl.create 64 in
        (* newest first: the earliest position is written last *)
        Facts.iter
          (fun p t loc ->
            if String.equal p pred then R.Tuple.Tbl.replace tbl t loc)
          facts;
        Hashtbl.add tables pred tbl;
        tbl
    in
    R.Tuple.Tbl.find_opt tbl tuple
  in
  List.iter
    (fun (v : Md_ontology.referential_violation) ->
      let pos =
        Option.map Facts.pos
          (first_loc v.Md_ontology.relation v.Md_ontology.tuple)
      in
      let line = Option.map (fun p -> p.Lexer.line) pos in
      let col = Option.map (fun p -> p.Lexer.col) pos in
      Diag.warningf diags ?line ?col ~code:"W045" "%s"
        (Format.asprintf "referential violation: %a" Md_ontology.pp_violation
           v))
    (Md_ontology.referential_violations p.ontology)

let check_string ?file input =
  let diags = Diag.collector ?file () in
  let decls, statements, facts =
    Trace.with_span "md_parser.collect" (fun () -> collect diags input)
  in
  let arts =
    Trace.with_span "md_parser.validate" (fun () ->
        validate diags decls statements facts)
  in
  let parsed =
    if Diag.has_errors diags then None
    else
      match
        Trace.with_span "md_parser.build" (fun () ->
            build decls statements facts arts)
      with
      | p ->
        Trace.with_span "md_parser.advisory" (fun () ->
            advisory diags statements facts p);
        Some p
      | exception Invalid_argument m ->
        (* validation pre-empts every assembly failure; located net *)
        Diag.error diags ~line:1 ~code:"E003" m;
        None
  in
  { parsed; diags = Diag.to_list diags }

let check_file path =
  check_string ~file:path (In_channel.with_open_bin path In_channel.input_all)

let parse_string input =
  let { parsed; diags } = check_string input in
  Parser.fail_fast parsed diags

let parse_file path =
  parse_string (In_channel.with_open_bin path In_channel.input_all)
