module Value = Mdqa_relational.Value
module Smap = Map.Make (String)

let all_member = Value.sym "all"

type problem =
  | Unknown_category of { member : int; name : string; category : string }
  | Duplicate_member of { member : int; name : string; first : string }
  | Unknown_member of { link : int; name : string }
  | Off_schema_link of {
      link : int;
      child : string;
      parent : string;
      child_category : string;
      parent_category : string;
    }

type violation =
  | Non_strict of {
      member : Value.t;
      category : string;
      ancestor_category : string;
      ancestors : Value.t list;
    }
  | Non_covering of {
      member : Value.t;
      category : string;
      parent_category : string;
    }

type report = {
  strict : bool;
  homogeneous : bool;
  violations : violation list;
}

(* One member: its category, its immediate parents and, per proper
   ancestor category, the members it rolls up to there (all sorted). *)
type node = {
  value : Value.t;
  category : string;
  parents : Value.t list;
  ancestors : (string * Value.t list) list;
}

type t = {
  schema : Dim_schema.t;
  by_category : Value.t list Smap.t;  (* category -> members, sorted *)
  nodes : (string, node) Hashtbl.t;  (* member name -> its node *)
  drilldowns : (Value.t * string, Value.t list) Hashtbl.t Lazy.t;
      (* (member, descendant category) -> its descendants there *)
  report : report;
}

let find_list tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)

let message schema p =
  let dim = Dim_schema.name schema in
  match p with
  | Unknown_category { name; category; _ } ->
    Printf.sprintf "dimension %s has no category %s (member %s)" dim category
      name
  | Duplicate_member { name; first; _ } ->
    Printf.sprintf "member %s already declared in category %s of dimension %s"
      name first dim
  | Unknown_member { name; _ } ->
    Printf.sprintf "link references unknown member %s of dimension %s" name dim
  | Off_schema_link { child; parent; child_category; parent_category; _ } ->
    Printf.sprintf
      "link %s -> %s does not follow a schema edge (%s -> %s) in dimension %s"
      child parent child_category parent_category dim

(* The ancestors reached through two parents: per category, the union. *)
let union a b =
  match (a, b) with
  | [], l | l, [] -> l
  | _ ->
    List.fold_left
      (fun acc (c, vs) ->
        match List.assoc_opt c acc with
        | None -> (c, vs) :: acc
        | Some ws ->
          (c, List.sort_uniq Value.compare (vs @ ws))
          :: List.remove_assoc c acc)
      a b

(* A node's violations: each ancestor category it reaches at least two
   members of, then each parent category it has no parent in. *)
let node_violations ~above ~parent_categories n ps =
  List.filter_map
    (fun ancestor_category ->
      match List.assoc_opt ancestor_category n.ancestors with
      | Some (_ :: _ :: _ as ancestors) ->
        Some
          (Non_strict
             { member = n.value; category = n.category; ancestor_category;
               ancestors })
      | _ -> None)
    above
  @ List.filter_map
      (fun parent_category ->
        if List.exists (fun p -> p.category = parent_category) ps then None
        else
          Some
            (Non_covering
               { member = n.value; category = n.category; parent_category }))
      parent_categories

(* The roll-up closure, top-down over the categories, so a member's
   parents (in strictly higher categories) have their nodes before it:
   its ancestors in a category are the union, over its parents p, of
   {p} and p's ancestors there.  [declared] maps each member to its
   category and its declared parents. *)
let build schema declared =
  let names = Hashtbl.create 16 in
  Hashtbl.iter
    (fun m (cat, _) -> Hashtbl.replace names cat (m :: find_list names cat))
    declared;
  let nodes = Hashtbl.create (Hashtbl.length declared) in
  let by_category, violated =
    List.fold_left
      (fun (by_category, violated) category ->
        let above = Dim_schema.ancestors schema category
        and parent_categories = Dim_schema.parents schema category in
        let implicit =
          if List.mem Dim_schema.all parent_categories then [ "all" ] else []
        in
        let node m =
          let ps =
            List.map (Hashtbl.find nodes)
              (List.sort_uniq String.compare
                 (implicit @ !(snd (Hashtbl.find declared m))))
          in
          let ancestors =
            List.fold_left
              (fun acc p ->
                union acc ((p.category, [ p.value ]) :: p.ancestors))
              [] ps
          in
          let n =
            { value = Value.sym m; category;
              parents = List.map (fun p -> p.value) ps; ancestors }
          in
          Hashtbl.replace nodes m n;
          (n, node_violations ~above ~parent_categories n ps)
        in
        let built =
          List.map node (List.sort String.compare (find_list names category))
        in
        ( Smap.add category (List.map (fun (n, _) -> n.value) built)
            by_category,
          List.concat_map snd built @ violated ))
      (Smap.empty, [])
      (List.rev (Dim_schema.categories schema))
  in
  (* The inverse holds every member once per ancestor, and the
     assessment pipeline never drills down: build it on first use. *)
  let drilldowns =
    lazy
      (let down = Hashtbl.create 64 in
       Hashtbl.iter
         (fun _ n ->
           List.iter
             (fun (_, above) ->
               List.iter
                 (fun a ->
                   Hashtbl.replace down (a, n.category)
                     (n.value :: find_list down (a, n.category)))
                 above)
             n.ancestors)
         nodes;
       Hashtbl.filter_map_inplace
         (fun _ below -> Some (List.sort Value.compare below))
         down;
       down)
  in
  let no f = not (List.exists f violated) in
  { schema; by_category; nodes; drilldowns;
    report =
      { strict = no (function Non_strict _ -> true | _ -> false);
        homogeneous = no (function Non_covering _ -> true | _ -> false);
        violations = violated } }

(* One pass over a declaration finds its problems and, per member, its
   category (the first declaration wins) and its parents along schema
   edges; the closure is built only when there is no problem. *)
let check schema ~members ~links =
  let problems = ref [] in
  let report p = problems := p :: !problems in
  let known = Dim_schema.mem_category schema
  and edges = Dim_schema.edges schema in
  let declared = Hashtbl.create 64 and member = ref 0 in
  Hashtbl.replace declared "all" (Dim_schema.all, ref []);
  List.iter
    (fun (category, names) ->
      List.iter
        (fun name ->
          if not (known category) then
            report (Unknown_category { member = !member; name; category });
          (match Hashtbl.find_opt declared name with
           | Some (first, _) ->
             report (Duplicate_member { member = !member; name; first })
           | None -> Hashtbl.replace declared name (category, ref []));
          incr member)
        names)
    members;
  List.iteri
    (fun link (child, parent) ->
      match
        (Hashtbl.find_opt declared child, Hashtbl.find_opt declared parent)
      with
      | None, _ -> report (Unknown_member { link; name = child })
      | _, None -> report (Unknown_member { link; name = parent })
      | Some (cc, _), Some (pc, _) when not (known cc && known pc) -> ()
      | Some (cc, parents), Some (pc, _) ->
        if List.mem (cc, pc) edges then parents := parent :: !parents
        else
          report
            (Off_schema_link
               { link; child; parent; child_category = cc;
                 parent_category = pc }))
    links;
  if !problems = [] then Ok (build schema declared)
  else Error (List.rev !problems)

let make schema ~members ~links =
  match check schema ~members ~links with
  | Ok t -> t
  | Error ps -> invalid_arg (message schema (List.hd ps))

let schema t = t.schema

let members t cat =
  if not (Dim_schema.mem_category t.schema cat) then raise Not_found;
  Option.value ~default:[] (Smap.find_opt cat t.by_category)

let node t v =
  match v with Value.Sym n -> Hashtbl.find_opt t.nodes n | _ -> None

let category_of t v = Option.map (fun n -> n.category) (node t v)

let member_parents t v =
  match node t v with Some n -> n.parents | None -> []

let rollup t v ~to_category =
  match node t v with
  | Some n -> Option.value ~default:[] (List.assoc_opt to_category n.ancestors)
  | None -> []

let drilldown t v ~to_category =
  Option.value ~default:[]
    (Hashtbl.find_opt (Lazy.force t.drilldowns) (v, to_category))

let diagnose t = t.report

let summarizable t ~from_category ~to_category =
  Dim_schema.is_ancestor t.schema ~ancestor:to_category from_category
  && List.for_all
       (fun m -> List.length (rollup t m ~to_category) = 1)
       (members t from_category)

let pp_violation ppf = function
  | Non_strict { member; category; ancestor_category; ancestors } ->
    Format.fprintf ppf "non-strict: %a (%s) rolls up to {%s} in %s"
      Value.pp member category
      (String.concat ", " (List.map Value.to_string ancestors))
      ancestor_category
  | Non_covering { member; category; parent_category } ->
    Format.fprintf ppf "non-covering: %a (%s) has no parent in %s" Value.pp
      member category parent_category

let pp_report ppf r =
  Format.fprintf ppf "@[<v>strict: %b, homogeneous: %b" r.strict r.homogeneous;
  List.iter (fun v -> Format.fprintf ppf "@,  %a" pp_violation v) r.violations;
  Format.fprintf ppf "@]"

let pp ppf t =
  Format.fprintf ppf "@[<v>instance of %a:" Dim_schema.pp t.schema;
  List.iter
    (fun cat ->
      if cat <> Dim_schema.all then
        Format.fprintf ppf "@,  %s = {%s}" cat
          (String.concat ", " (List.map Value.to_string (members t cat))))
    (Dim_schema.categories t.schema);
  Format.fprintf ppf "@]"
