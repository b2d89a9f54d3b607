module Instance = Mdqa_relational.Instance
module Relation = Mdqa_relational.Relation
module Rel_schema = Mdqa_relational.Rel_schema
module Tuple = Mdqa_relational.Tuple

type t = {
  tgds : Tgd.t list;
  egds : Egd.t list;
  ncs : Nc.t list;
  facts : Relation.t list;
}

module Smap = Map.Make (String)

(* every predicate use with its arity: each rule atom, then each fact
   relation once *)
let uses p =
  let atom a = (Atom.pred a, Atom.arity a) in
  List.concat_map (fun (t : Tgd.t) -> List.map atom (t.body @ t.head)) p.tgds
  @ List.concat_map (fun (e : Egd.t) -> List.map atom e.body) p.egds
  @ List.concat_map (fun (n : Nc.t) -> List.map atom n.body) p.ncs
  @ List.map (fun r -> (Relation.name r, Relation.arity r)) p.facts

let arities p =
  List.fold_left
    (fun acc (pred, n) ->
      match Smap.find_opt pred acc with
      | Some n' when n' <> n ->
        invalid_arg
          (Printf.sprintf
             "Program: predicate %s used with arities %d and %d" pred n' n)
      | _ -> Smap.add pred n acc)
    Smap.empty (uses p)

let schema pred n =
  Rel_schema.of_names pred (List.init n (Printf.sprintf "c%d"))

let of_relations ~tgds ~egds ~ncs facts =
  let by_name a b = String.compare (Relation.name a) (Relation.name b) in
  let p = { tgds; egds; ncs; facts = List.sort by_name facts } in
  ignore (arities p);
  p

let make ?(tgds = []) ?(egds = []) ?(ncs = []) ?(facts = []) () =
  let inst = Instance.create () in
  List.iter
    (fun f ->
      let pred = Atom.pred f and tuple = Atom.to_tuple f in
      if Instance.find inst pred = None then
        ignore (Instance.declare inst (schema pred (Tuple.arity tuple)));
      ignore (Instance.add_tuple inst pred tuple))
    facts;
  of_relations ~tgds ~egds ~ncs (Instance.relations inst)

let predicates p = Smap.bindings (arities p)

let positions p =
  List.concat_map
    (fun (pred, n) -> List.init n (fun i -> (pred, i)))
    (predicates p)

let idb_predicates p =
  List.sort_uniq String.compare (List.concat_map Tgd.head_preds p.tgds)

(* added last to first, so each predicate finds its TGDs in order *)
let tgds_with_head p =
  let heads = Hashtbl.create 64 in
  List.iter
    (fun t ->
      List.iter (fun h -> Hashtbl.add heads h t)
        (List.sort_uniq String.compare (Tgd.head_preds t)))
    (List.rev p.tgds);
  Hashtbl.find_all heads

let predicate_graph p =
  List.concat_map
    (fun t ->
      List.concat_map
        (fun b -> List.map (fun h -> (b, h)) (Tgd.head_preds t))
        (Tgd.body_preds t))
    p.tgds
  |> List.sort_uniq compare

let predicate_graph_acyclic p =
  let edges = predicate_graph p and succs = Hashtbl.create 64 in
  List.iter (fun (a, b) -> Hashtbl.add succs a b) edges;
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
      let ok = List.for_all visit (Hashtbl.find_all succs n) in
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
        if Relation.arity r <> n then
          invalid_arg
            (Printf.sprintf
               "Program.declare_predicates: %s has arity %d in instance, %d \
                in program"
               pred (Relation.arity r) n)
      | None -> ignore (Instance.declare inst (schema pred n)))
    (predicates p)

let instance_of_facts p =
  let inst = Instance.create () in
  declare_predicates p inst;
  List.iter
    (fun r -> Relation.union (Instance.get inst (Relation.name r)) r)
    p.facts;
  inst
