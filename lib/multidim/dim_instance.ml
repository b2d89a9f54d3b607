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
  by_category : string list Smap.t;  (* category -> member names, sorted *)
  nodes : (string, node) Hashtbl.t;  (* member name -> its node *)
  drilldowns : (Value.t * string, Value.t list) Hashtbl.t Lazy.t;
      (* (member, descendant category) -> its descendants there *)
}

let find_list tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)

(* One pass over a declaration: its problems, each member's category
   (the first declaration wins) and each member's parents along schema
   edges, including the implicit links to [all]. *)
let declare schema ~members ~links =
  let problems = ref [] in
  let report p = problems := p :: !problems in
  let known = Dim_schema.mem_category schema
  and edges = Dim_schema.edges schema in
  let category_of = Hashtbl.create 64 and parents = Hashtbl.create 64 in
  Hashtbl.replace category_of "all" Dim_schema.all;
  List.iteri
    (fun member (name, category) ->
      if not (known category) then
        report (Unknown_category { member; name; category });
      match Hashtbl.find_opt category_of name with
      | Some first -> report (Duplicate_member { member; name; first })
      | None -> Hashtbl.replace category_of name category)
    (List.concat_map
       (fun (category, names) -> List.map (fun n -> (n, category)) names)
       members);
  let add_parent child parent =
    Hashtbl.replace parents child (parent :: find_list parents child)
  in
  List.iteri
    (fun link (child, parent) ->
      match
        ( Hashtbl.find_opt category_of child,
          Hashtbl.find_opt category_of parent )
      with
      | None, _ -> report (Unknown_member { link; name = child })
      | _, None -> report (Unknown_member { link; name = parent })
      | Some cc, Some pc when not (known cc && known pc) -> ()
      | Some cc, Some pc ->
        if List.mem (cc, pc) edges then add_parent child parent
        else
          report
            (Off_schema_link
               { link; child; parent; child_category = cc;
                 parent_category = pc }))
    links;
  Hashtbl.iter
    (fun m cat ->
      if List.mem (cat, Dim_schema.all) edges then add_parent m "all")
    category_of;
  (List.rev !problems, category_of, parents)

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

(* The roll-up closure of a declaration [declare] found no problem in. *)
let build schema category_of parents =
  let by_category =
    Hashtbl.fold
      (fun m cat bc ->
        Smap.add cat (m :: Option.value ~default:[] (Smap.find_opt cat bc)) bc)
      category_of Smap.empty
    |> Smap.map (List.sort String.compare)
  in
  (* Top-down over the categories, so a member's parents (in strictly
     higher categories) have their nodes before it: its ancestors in a
     category are the union, over its parents p, of {p} and p's
     ancestors there. *)
  let nodes = Hashtbl.create (Hashtbl.length category_of) in
  List.iter
    (fun category ->
      List.iter
        (fun m ->
          let ps =
            List.map (Hashtbl.find nodes)
              (List.sort_uniq String.compare (find_list parents m))
          in
          let ancestors =
            List.fold_left
              (fun acc p ->
                union acc ((p.category, [ p.value ]) :: p.ancestors))
              [] ps
          in
          Hashtbl.replace nodes m
            { value = Value.sym m; category;
              parents = List.map (fun p -> p.value) ps; ancestors })
        (Option.value ~default:[] (Smap.find_opt category by_category)))
    (List.rev (Dim_schema.categories schema));
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
  { schema; by_category; nodes; drilldowns }

let check schema ~members ~links =
  match declare schema ~members ~links with
  | [], category_of, parents -> Ok (build schema category_of parents)
  | problems, _, _ -> Error problems

let make schema ~members ~links =
  match check schema ~members ~links with
  | Ok t -> t
  | Error ps -> invalid_arg (message schema (List.hd ps))

let schema t = t.schema

let members t cat =
  if not (Dim_schema.mem_category t.schema cat) then raise Not_found;
  List.map Value.sym
    (Option.value ~default:[] (Smap.find_opt cat t.by_category))

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

let size t = Hashtbl.length t.nodes - 1

let pp ppf t =
  Format.fprintf ppf "@[<v>instance of %a:" Dim_schema.pp t.schema;
  List.iter
    (fun cat ->
      if cat <> Dim_schema.all then
        Format.fprintf ppf "@,  %s = {%s}" cat
          (String.concat ", "
             (List.map Value.to_string (members t cat))))
    (Dim_schema.categories t.schema);
  Format.fprintf ppf "@]"
