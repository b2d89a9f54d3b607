module Instance = Mdqa_relational.Instance
module Rel_schema = Mdqa_relational.Rel_schema

type t = {
  tgds : Tgd.t list;
  egds : Egd.t list;
  ncs : Nc.t list;
  facts : Atom.t list;
}

module Smap = Map.Make (String)

let atoms_of p =
  List.concat_map (fun (t : Tgd.t) -> t.body @ t.head) p.tgds
  @ List.concat_map (fun (e : Egd.t) -> e.body) p.egds
  @ List.concat_map (fun (n : Nc.t) -> n.body) p.ncs
  @ p.facts

let arities p =
  List.fold_left
    (fun acc a ->
      let pred = Atom.pred a and n = Atom.arity a in
      match Smap.find_opt pred acc with
      | Some n' when n' <> n ->
        invalid_arg
          (Printf.sprintf
             "Program: predicate %s used with arities %d and %d" pred n' n)
      | _ -> Smap.add pred n acc)
    Smap.empty (atoms_of p)

let make ?(tgds = []) ?(egds = []) ?(ncs = []) ?(facts = []) () =
  List.iter
    (fun f ->
      if not (Atom.is_ground f) then
        invalid_arg
          (Format.asprintf "Program: fact %a is not ground" Atom.pp f))
    facts;
  let p = { tgds; egds; ncs; facts } in
  ignore (arities p);
  p

let predicates p = Smap.bindings (arities p)

let positions p =
  List.concat_map
    (fun (pred, n) -> List.init n (fun i -> (pred, i)))
    (predicates p)

let idb_predicates p =
  List.sort_uniq String.compare (List.concat_map Tgd.head_preds p.tgds)

let tgds_with_head p pred =
  List.filter (fun t -> List.mem pred (Tgd.head_preds t)) p.tgds

let predicate_graph p =
  List.concat_map
    (fun t ->
      List.concat_map
        (fun b -> List.map (fun h -> (b, h)) (Tgd.head_preds t))
        (Tgd.body_preds t))
    p.tgds
  |> List.sort_uniq compare

let predicate_graph_acyclic p =
  let edges = predicate_graph p in
  let succs n = List.filter_map (fun (a, b) -> if a = n then Some b else None) edges in
  let nodes =
    List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges)
  in
  (* DFS cycle detection with colours. *)
  let colour = Hashtbl.create 16 in
  let rec visit n =
    match Hashtbl.find_opt colour n with
    | Some `Done -> true
    | Some `Active -> false
    | None ->
      Hashtbl.add colour n `Active;
      let ok = List.for_all visit (succs n) in
      Hashtbl.replace colour n `Done;
      ok
  in
  List.for_all visit nodes

let relevant_tgds p ~goals =
  (* target predicates: the goals plus every EGD/NC body predicate *)
  let targets =
    goals
    @ List.concat_map (fun (e : Egd.t) -> List.map Atom.pred e.Egd.body) p.egds
    @ List.concat_map (fun (n : Nc.t) -> List.map Atom.pred n.Nc.body) p.ncs
    |> List.sort_uniq String.compare
  in
  let edges = predicate_graph p in
  (* Can [pred] reach a target through body→head edges?  Negative
     results under a cycle cutoff are path-dependent, so only positive
     results are memoized (the graphs are small). *)
  let memo = Hashtbl.create 16 in
  let rec reaches seen pred =
    List.mem pred targets
    || Hashtbl.mem memo pred
    || (not (List.mem pred seen))
       &&
       let r =
         List.exists
           (fun (b, h) -> b = pred && reaches (pred :: seen) h)
           edges
       in
       if r then Hashtbl.replace memo pred ();
       r
  in
  List.filter
    (fun tgd -> List.exists (reaches []) (Tgd.head_preds tgd))
    p.tgds

let restrict_to_goals p ~goals =
  { p with tgds = relevant_tgds p ~goals }

let declare_predicates p inst =
  List.iter
    (fun (pred, n) ->
      match Instance.find inst pred with
      | Some r ->
        if Mdqa_relational.Relation.arity r <> n then
          invalid_arg
            (Printf.sprintf
               "Program.declare_predicates: %s has arity %d in instance, %d \
                in program"
               pred
               (Mdqa_relational.Relation.arity r)
               n)
      | None ->
        ignore
          (Instance.declare inst
             (Rel_schema.of_names pred (List.init n (Printf.sprintf "c%d")))))
    (predicates p)

let instance_of_facts p =
  let inst = Instance.create () in
  declare_predicates p inst;
  List.iter
    (fun f -> ignore (Instance.add_tuple inst (Atom.pred f) (Atom.to_tuple f)))
    p.facts;
  inst

let pp ppf p =
  let sep ppf () = Format.pp_print_cut ppf () in
  Format.fprintf ppf "@[<v>%a%a%a%a@]"
    (Format.pp_print_list ~pp_sep:sep (fun ppf t ->
         Format.fprintf ppf "%a." Tgd.pp t))
    p.tgds
    (fun ppf l ->
      List.iter (fun e -> Format.fprintf ppf "@,%a." Egd.pp e) l)
    p.egds
    (fun ppf l -> List.iter (fun n -> Format.fprintf ppf "@,%a." Nc.pp n) l)
    p.ncs
    (fun ppf l -> List.iter (fun f -> Format.fprintf ppf "@,%a." Atom.pp f) l)
    p.facts
