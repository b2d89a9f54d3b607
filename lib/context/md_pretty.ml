open Mdqa_multidim
open Mdqa_datalog
module R = Mdqa_relational

(* A name can stay bare when it lexes back as a single identifier
   token; anything containing operator characters is quoted. *)
let bare_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' -> true
         | _ -> false)
       s

let q_name s =
  if bare_name s then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun ch ->
        if ch = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf ch)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let dimension_block buf schema instance =
  let name = Dim_schema.name schema in
  Buffer.add_string buf (Printf.sprintf "dimension %s {\n" (q_name name));
  List.iter
    (fun (child, parent) ->
      if parent <> Dim_schema.all then
        Buffer.add_string buf
          (Printf.sprintf "  category %s -> %s.\n" (q_name child)
             (q_name parent)))
    (Dim_schema.edges schema);
  (* categories whose only parent is All still need declaring *)
  List.iter
    (fun c ->
      if
        c <> Dim_schema.all
        && Dim_schema.parents schema c = [ Dim_schema.all ]
        && Dim_schema.children schema c = []
      then Buffer.add_string buf (Printf.sprintf "  category %s.\n" (q_name c)))
    (Dim_schema.categories schema);
  List.iter
    (fun c ->
      if c <> Dim_schema.all then
        List.iter
          (fun m ->
            let mname = R.Value.to_string m in
            let mname =
              (* strip the quoting Value.to_string may add *)
              match m with R.Value.Sym { name; _ } -> name | _ -> mname
            in
            let parents =
              List.filter_map
                (fun p ->
                  match p with
                  | R.Value.Sym { name = "all"; _ } -> None
                  | R.Value.Sym { name; _ } -> Some (q_name name)
                  | _ -> None)
                (Dim_instance.member_parents instance m)
            in
            if parents = [] then
              Buffer.add_string buf
                (Printf.sprintf "  member %s in %s.\n" (q_name mname)
                   (q_name c))
            else
              Buffer.add_string buf
                (Printf.sprintf "  member %s in %s -> %s.\n" (q_name mname)
                   (q_name c)
                   (String.concat ", " parents)))
          (Dim_instance.members instance c))
    (Dim_schema.categories schema);
  Buffer.add_string buf "}\n\n"

let relation_decl buf ~keyword schema =
  let attr a =
    match R.Attribute.kind a with
    | R.Attribute.Plain -> q_name (R.Attribute.name a)
    | R.Attribute.Categorical { dimension; category } ->
      Printf.sprintf "%s in %s.%s"
        (q_name (R.Attribute.name a))
        dimension category
  in
  Buffer.add_string buf
    (Printf.sprintf "%s %s(%s).\n" keyword
       (R.Rel_schema.name schema)
       (String.concat ", " (List.map attr (R.Rel_schema.attributes schema))))

let facts_of_instance buf inst =
  List.iter
    (fun rel ->
      R.Relation.iter
        (fun t ->
          Buffer.add_string buf
            (Format.asprintf "%a\n" Pretty.fact (R.Relation.name rel, t)))
        rel)
    (R.Instance.relations inst)

let ontology_body buf (m : Md_ontology.t) =
  let schema = m.Md_ontology.schema in
  List.iter
    (fun d ->
      let inst =
        List.find
          (fun i ->
            String.equal
              (Dim_schema.name (Dim_instance.schema i))
              (Dim_schema.name d))
          m.Md_ontology.dim_instances
      in
      dimension_block buf d inst)
    (Md_schema.dimensions schema);
  List.iter (relation_decl buf ~keyword:"relation") (Md_schema.relations schema);
  Buffer.add_string buf "\n";
  facts_of_instance buf m.Md_ontology.data;
  Buffer.add_string buf "\n";
  List.iter
    (fun tgd -> Buffer.add_string buf (Format.asprintf "%a\n" Pretty.tgd tgd))
    m.Md_ontology.rules;
  List.iter
    (fun egd -> Buffer.add_string buf (Format.asprintf "%a\n" Pretty.egd egd))
    m.Md_ontology.egds;
  List.iter
    (fun nc -> Buffer.add_string buf (Format.asprintf "%a\n" Pretty.nc nc))
    m.Md_ontology.ncs

let ontology_to_string m =
  let buf = Buffer.create 4096 in
  ontology_body buf m;
  Buffer.contents buf

let context_to_string ?source ?(queries = []) (ctx : Context.t) =
  let buf = Buffer.create 4096 in
  ontology_body buf ctx.Context.ontology;
  Buffer.add_string buf "\n";
  (match source with
   | Some src ->
     List.iter
       (fun rel ->
         relation_decl buf ~keyword:"source" (R.Relation.schema rel))
       (R.Instance.relations src)
   | None -> ());
  List.iter
    (fun rel -> relation_decl buf ~keyword:"external" (R.Relation.schema rel))
    ctx.Context.externals;
  List.iter
    (fun (mp : Context.mapping) ->
      Buffer.add_string buf
        (Printf.sprintf "map %s -> %s.\n" mp.Context.source mp.Context.target))
    ctx.Context.mappings;
  List.iter
    (fun (orig, qp) ->
      Buffer.add_string buf (Printf.sprintf "quality %s -> %s.\n" orig qp))
    ctx.Context.quality_versions;
  Buffer.add_string buf "\n";
  (match source with
   | Some src -> facts_of_instance buf src
   | None -> ());
  List.iter
    (fun rel ->
      R.Relation.iter
        (fun t ->
          Buffer.add_string buf
            (Format.asprintf "%a\n" Mdqa_datalog.Pretty.fact
               (R.Relation.name rel, t)))
        rel)
    ctx.Context.externals;
  Buffer.add_string buf "\n";
  List.iter
    (fun tgd -> Buffer.add_string buf (Format.asprintf "%a\n" Pretty.tgd tgd))
    ctx.Context.rules;
  List.iter
    (fun q -> Buffer.add_string buf (Format.asprintf "%a\n" Pretty.query q))
    queries;
  Buffer.contents buf
