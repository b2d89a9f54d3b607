open Mdqa_datalog
module R = Mdqa_relational
module Md_ontology = Mdqa_multidim.Md_ontology

type mapping = { source : string; target : string }

type t = {
  ontology : Md_ontology.t;
  mappings : mapping list;
  rules : Tgd.t list;
  externals : R.Relation.t list;
  quality_versions : (string * string) list;
}

let make ~ontology ?(mappings = []) ?(rules = []) ?(externals = [])
    ?(quality_versions = []) () =
  let unique what names =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun n ->
        if Hashtbl.mem seen n then
          invalid_arg (Printf.sprintf "Context: duplicate %s %s" what n);
        Hashtbl.add seen n ())
      names
  in
  unique "mapping source" (List.map (fun m -> m.source) mappings);
  unique "quality version" (List.map fst quality_versions);
  { ontology; mappings; rules; externals; quality_versions }

type assessment = {
  context : t;
  chase : Chase.result;
  source : R.Instance.t;
}

let program t =
  let p = Md_ontology.program t.ontology in
  Program.make
    ~tgds:(p.Program.tgds @ t.rules)
    ~egds:p.Program.egds ~ncs:p.Program.ncs ()

let prepare t ~source =
  let inst = Md_ontology.instance t.ontology in
  (* Externals and the mapped copies of the original relations share
     their source's tuple set: nothing is copied. *)
  List.iter
    (fun e ->
      R.Relation.union (R.Instance.declare inst (R.Relation.schema e)) e)
    t.externals;
  List.iter
    (fun { source = s; target } ->
      match R.Instance.find source s with
      | None -> ()
      | Some rel ->
        let schema =
          R.Rel_schema.make target
            (R.Rel_schema.attributes (R.Relation.schema rel))
        in
        R.Relation.union (R.Instance.declare inst schema) rel)
    t.mappings;
  inst

let assess_prepared ?provenance ?guard ?metrics t ~source ~prepared =
  let chase = Chase.run ?provenance ?guard ?metrics (program t) prepared in
  { context = t; chase; source }

let assess ?provenance ?guard ?metrics t ~source =
  Mdqa_obs.Profile.with_phase "assess" @@ fun () ->
  assess_prepared ?provenance ?guard ?metrics t ~source
    ~prepared:(prepare t ~source)

let degradation a =
  match a.chase.Chase.outcome with
  | Chase.Out_of_budget e -> Some e
  | _ -> None

let assess_incremental ?guard (a : assessment) ~added =
  (* extend the original instance D *)
  let source = R.Instance.copy a.source in
  List.iter
    (fun (rel, t) ->
      match R.Instance.find source rel with
      | Some r -> ignore (R.Relation.add r t)
      | None ->
        invalid_arg
          (Printf.sprintf "assess_incremental: unknown source relation %s" rel))
    added;
  (* new facts as seen by the context: the mapped copies *)
  let delta =
    List.concat_map
      (fun (rel, t) ->
        match
          List.find_opt (fun (m : mapping) -> String.equal m.source rel)
            a.context.mappings
        with
        | Some m -> [ (m.target, t) ]
        | None -> [])
      added
  in
  let chase =
    Chase.run ?guard
      ~start:(Chase.Extend { prior = a.chase; facts = delta })
      (program a.context) a.chase.Chase.instance
  in
  { context = a.context; chase; source }

(* A degraded chase still holds a well-formed partial instance; with
   [partial] its null-free quality versions are exposed (an
   under-approximation of the saturated ones).  A [Failed] chase never
   yields quality versions. *)
let chase_usable ~partial (a : assessment) =
  match a.chase.Chase.outcome with
  | Chase.Saturated -> true
  | Chase.Out_of_budget _ -> partial
  | Chase.Failed _ -> false

let quality_version ?(partial = false) a name =
  match List.assoc_opt name a.context.quality_versions with
  | None -> None
  | Some qpred ->
    if not (chase_usable ~partial a) then None
    else (
      match R.Instance.find a.chase.Chase.instance qpred with
      | None -> None
      | Some qrel ->
        (* Present the null-free extension under the original schema
           when available (same arity), else under the chased one. *)
        let schema =
          match R.Instance.find a.source name with
          | Some orig_rel
            when R.Relation.arity orig_rel = R.Relation.arity qrel ->
            R.Rel_schema.make
              (R.Rel_schema.name (R.Relation.schema qrel))
              (R.Rel_schema.attributes (R.Relation.schema orig_rel))
          | _ -> R.Relation.schema qrel
        in
        let out = R.Relation.create schema in
        R.Relation.iter
          (fun tup ->
            if not (R.Tuple.has_null tup) then
              ignore (R.Relation.add out tup))
          qrel;
        Some out)

let rewrite_query t (q : Query.t) =
  let subst_pred p =
    match List.assoc_opt p t.quality_versions with
    | Some qp -> qp
    | None -> p
  in
  let body =
    List.map (fun a -> Atom.make (subst_pred (Atom.pred a)) (Atom.args a))
      q.Query.body
  in
  Query.make ~name:(q.Query.name ^ "_q") ~cmps:q.Query.cmps ~head:q.Query.head
    body

let clean_answers ?(partial = false) a q =
  if not (chase_usable ~partial a) then None
  else
    Some (Query.certain a.chase.Chase.instance (rewrite_query a.context q))

let explain a name tuple =
  match List.assoc_opt name a.context.quality_versions with
  | None -> Error (Printf.sprintf "%s has no declared quality version" name)
  | Some qpred -> Explain.why a.chase qpred tuple
