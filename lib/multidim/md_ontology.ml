open Mdqa_datalog
module R = Mdqa_relational

type t = {
  schema : Md_schema.t;
  dim_instances : Dim_instance.t list;
  data : R.Instance.t;
  rules : Tgd.t list;
  rule_infos : Dim_rule.info list;
  egds : Egd.t list;
  ncs : Nc.t list;
}

let make ~schema ~dim_instances ?data ?(rules = []) ?(egds = []) ?(ncs = [])
    () =
  let fail fmt = Printf.ksprintf invalid_arg ("Md_ontology: " ^^ fmt) in
  (* Exactly one instance per dimension. *)
  let dims = Md_schema.dimensions schema in
  let has_dimension n =
    List.exists (fun d -> String.equal (Dim_schema.name d) n) dims
  and instance_name i = Dim_schema.name (Dim_instance.schema i) in
  List.iter
    (fun d ->
      let n = Dim_schema.name d in
      match
        List.filter (fun i -> String.equal (instance_name i) n) dim_instances
      with
      | [ _ ] -> ()
      | [] -> fail "no instance for dimension %s" n
      | _ -> fail "several instances for dimension %s" n)
    dims;
  List.iter
    (fun i ->
      let n = instance_name i in
      if not (has_dimension n) then
        fail "instance for an undeclared dimension %s" n)
    dim_instances;
  (* Data relations must match declared schemas. *)
  let data = match data with Some d -> d | None -> R.Instance.create () in
  List.iter
    (fun r ->
      let n = R.Relation.name r in
      match Md_schema.relation schema n with
      | Some declared ->
        if R.Rel_schema.arity declared <> R.Relation.arity r then
          fail "arity mismatch for relation %s" n
      | None -> fail "undeclared relation %s in data" n)
    (R.Instance.relations data);
  let rule_infos =
    List.map
      (fun (tgd : Tgd.t) ->
        match Dim_rule.analyze schema tgd with
        | Ok info -> info
        | Error e -> fail "rule %s: %s" tgd.Tgd.name e)
      rules
  in
  { schema; dim_instances; data; rules; rule_infos; egds; ncs }

let program t = Program.make ~tgds:t.rules ~egds:t.egds ~ncs:t.ncs ()

let instance t =
  let inst = R.Instance.copy t.data in
  (* Declare all categorical relations (some may hold no data yet). *)
  List.iter
    (fun rs -> ignore (R.Instance.declare inst rs))
    (Md_schema.relations t.schema);
  (* Category membership facts. *)
  List.iter
    (fun di ->
      let ds = Dim_instance.schema di in
      List.iter
        (fun cat ->
          if cat <> Dim_schema.all then begin
            let pred = Md_schema.category_pred cat in
            let rel =
              R.Instance.declare inst (R.Rel_schema.of_names pred [ "member" ])
            in
            List.iter
              (fun m -> ignore (R.Relation.add rel (R.Tuple.of_list [ m ])))
              (Dim_instance.members di cat)
          end)
        (Dim_schema.categories ds);
      (* Parent-child facts per schema edge. *)
      List.iter
        (fun (child, parent) ->
          if parent <> Dim_schema.all then begin
            let pred = Md_schema.parent_child_pred ~parent ~child in
            let rel =
              R.Instance.declare inst
                (R.Rel_schema.of_names pred [ "parent"; "child" ])
            in
            List.iter
              (fun m ->
                List.iter
                  (fun p ->
                    if Dim_instance.category_of di p = Some parent then
                      ignore (R.Relation.add rel (R.Tuple.of_list [ p; m ])))
                  (Dim_instance.member_parents di m))
              (Dim_instance.members di child)
          end)
        (Dim_schema.edges ds))
    t.dim_instances;
  inst

type referential_violation = {
  relation : string;
  position : int;
  tuple : R.Tuple.t;
  expected : string * string;
}

let referential_violations t =
  let out = ref [] in
  List.iter
    (fun rel ->
      let name = R.Relation.name rel in
      match Md_schema.relation t.schema name with
      | None -> ()
      | Some rs ->
        List.iter
          (fun i ->
            match R.Attribute.kind (R.Rel_schema.attribute rs i) with
            | R.Attribute.Plain -> ()
            | R.Attribute.Categorical { dimension; category } ->
              let di =
                List.find_opt
                  (fun d ->
                    String.equal
                      (Dim_schema.name (Dim_instance.schema d))
                      dimension)
                  t.dim_instances
              in
              R.Relation.iter
                (fun tuple ->
                  let v = R.Tuple.get tuple i in
                  let ok =
                    match di with
                    | Some d -> Dim_instance.category_of d v = Some category
                    | None -> false
                  in
                  if not ok then
                    out :=
                      { relation = name;
                        position = i;
                        tuple;
                        expected = (dimension, category) }
                      :: !out)
                rel)
          (R.Rel_schema.categorical_positions rs))
    (R.Instance.relations t.data);
  List.rev !out

let chase ?variant ?guard t =
  Chase.run ?variant ?guard (program t) (instance t)

let certain_answers ?guard t q =
  Query.certain_answers ?guard (program t) (instance t) q

let proof_answers t q = Proof.answer (program t) (instance t) q

let rewrite_answers ?guard t q =
  Rewrite.answers ?guard (program t) (instance t) q

let is_upward_only t = Dim_rule.is_upward_only t.schema t.rules

let classes t = Classes.classify (program t)

let separability t =
  Separability.within_positions (program t)
    ~closed:(Md_schema.categorical_positions t.schema)

let pp_violation ppf v =
  Format.fprintf ppf "%s%a: position %d not a member of %s.%s" v.relation
    R.Tuple.pp v.tuple v.position (fst v.expected) (snd v.expected)
