module Smap = Map.Make (String)

type checked = {
  parsed : Parser.parsed option;
  diags : Diag.t list;
}

(* A body/query predicate with no facts and no defining rule has a
   forever-empty extension: legal, but almost always a typo. *)
let check_undefined diags statements facts =
  let defined =
    List.fold_left
      (fun s { Parser.stmt; _ } ->
        match stmt with
        | Parser.S_tgd t ->
          List.fold_left
            (fun s a -> Smap.add (Atom.pred a) () s)
            s t.Tgd.head
        | _ -> s)
      (Smap.of_list
         (List.map
            (fun r -> (Mdqa_relational.Relation.name r, ()))
            (Parser.fact_relations facts)))
      statements
  in
  List.iter
    (fun { Parser.stmt; pos } ->
      let used =
        match stmt with
        | Parser.S_tgd t -> t.Tgd.body
        | Parser.S_egd e -> e.Egd.body
        | Parser.S_nc n -> n.Nc.body
        | Parser.S_query q -> q.Query.body
      in
      List.iter
        (fun a ->
          let p = Atom.pred a in
          if not (Smap.mem p defined) then
            Diag.warningf diags ~line:pos.Lexer.line ~col:pos.Lexer.col
              ~code:"W040"
              "predicate %s has no facts and no defining rule (its \
               extension is always empty)"
              p)
        used)
    statements

let check_certificate diags statements (program : Program.t) =
  if program.Program.tgds <> [] then begin
    let a = Analysis.analyse program in
    let pos_of_rule name =
      List.find_map
        (fun { Parser.stmt; pos } ->
          match stmt with
          | Parser.S_tgd t when String.equal t.Tgd.name name -> Some pos
          | _ -> None)
        statements
    in
    List.iter
      (fun ((tgd : Tgd.t), var) ->
        let pos = pos_of_rule tgd.Tgd.name in
        Diag.warningf diags
          ?line:(Option.map (fun p -> p.Lexer.line) pos)
          ?col:(Option.map (fun p -> p.Lexer.col) pos)
          ~code:"W041"
          "rule %s breaks weak stickiness: marked variable %s repeats in \
           the body with no finite-rank occurrence"
          tgd.Tgd.name var)
      a.Analysis.violations;
    Diag.hintf diags ~line:1 ~code:"H050" "justified QA path: %s"
      (Analysis.qa_path a)
  end

let check_string ?file input =
  Mdqa_obs.Trace.with_span "validate" @@ fun () ->
  let diags = Diag.collector ?file () in
  let statements, facts = Parser.parse_statements diags input in
  Parser.check_arities ~declared:[] diags statements facts;
  check_undefined diags statements facts;
  let parsed =
    if Diag.has_errors diags then None
    else Parser.program_of_statements diags statements facts
  in
  (match parsed with
   | Some { Parser.program; _ } -> check_certificate diags statements program
   | None -> ());
  { parsed; diags = Diag.to_list diags }

let check_file path =
  check_string ~file:path (In_channel.with_open_bin path In_channel.input_all)
