module Smap = Map.Make (String)
module Sset = Set.Make (String)

let all = "All"

type t = {
  name : string;
  cats : Sset.t;
  up : Sset.t Smap.t;  (* child -> parents *)
  down : Sset.t Smap.t;  (* parent -> children *)
}

let find_set m k = Option.value ~default:Sset.empty (Smap.find_opt k m)

let add_edge (up, down) (child, parent) =
  ( Smap.add child (Sset.add parent (find_set up child)) up,
    Smap.add parent (Sset.add child (find_set down parent)) down )

let check_acyclic name up cats =
  let colour = Hashtbl.create 16 in
  let rec visit c =
    match Hashtbl.find_opt colour c with
    | Some `Done -> ()
    | Some `Active ->
      invalid_arg
        (Printf.sprintf "Dim_schema %s: cycle through category %s" name c)
    | None ->
      Hashtbl.add colour c `Active;
      Sset.iter visit (find_set up c);
      Hashtbl.replace colour c `Done
  in
  Sset.iter visit cats

let make ~name ~edges =
  if edges = [] then invalid_arg "Dim_schema.make: no edges";
  List.iter
    (fun (c, p) ->
      if String.equal c p then
        invalid_arg
          (Printf.sprintf "Dim_schema %s: self-loop on %s" name c);
      if String.equal c all then
        invalid_arg
          (Printf.sprintf "Dim_schema %s: %s cannot be a child" name all))
    edges;
  let up, down = List.fold_left add_edge (Smap.empty, Smap.empty) edges in
  let cats =
    List.fold_left
      (fun s (c, p) -> Sset.add c (Sset.add p s))
      Sset.empty edges
  in
  (* Connect sink categories (other than All) to All. *)
  let sinks =
    Sset.filter
      (fun c -> (not (String.equal c all)) && Sset.is_empty (find_set up c))
      cats
  in
  let up, down =
    Sset.fold (fun c acc -> add_edge acc (c, all)) sinks (up, down)
  in
  let cats = Sset.add all cats in
  check_acyclic name up cats;
  { name; cats; up; down }

let linear ~name cats =
  match cats with
  | [] -> invalid_arg "Dim_schema.linear: empty category list"
  | [ c ] -> make ~name ~edges:[ (c, all) ]
  | _ ->
    let rec chain = function
      | a :: (b :: _ as rest) -> (a, b) :: chain rest
      | _ -> []
    in
    make ~name ~edges:(chain cats)

let name t = t.name
let mem_category t c = Sset.mem c t.cats

let check t c =
  if not (mem_category t c) then
    raise Not_found

let parents t c =
  check t c;
  Sset.elements (find_set t.up c)

let children t c =
  check t c;
  Sset.elements (find_set t.down c)

let transitive step t c =
  check t c;
  let rec go frontier acc =
    match frontier with
    | [] -> acc
    | x :: rest ->
      let next =
        List.filter (fun y -> not (Sset.mem y acc)) (step t x)
      in
      go (next @ rest) (List.fold_left (fun s y -> Sset.add y s) acc next)
  in
  Sset.elements (go [ c ] Sset.empty)

let ancestors = transitive parents

let bottoms t =
  Sset.elements (Sset.filter (fun c -> Sset.is_empty (find_set t.down c)) t.cats)

let level t c =
  check t c;
  let memo = Hashtbl.create 16 in
  let rec go c =
    match Hashtbl.find_opt memo c with
    | Some l -> l
    | None ->
      let l =
        match children t c with
        | [] -> 0
        | kids -> 1 + List.fold_left (fun m k -> max m (go k)) 0 kids
      in
      Hashtbl.add memo c l;
      l
  in
  go c

let categories t =
  Sset.elements t.cats
  |> List.sort (fun a b ->
         let c = Int.compare (level t a) (level t b) in
         if c <> 0 then c else String.compare a b)

let edges t =
  Smap.fold
    (fun child ps acc -> Sset.fold (fun p acc -> (child, p) :: acc) ps acc)
    t.up []
  |> List.sort compare

let is_ancestor t ~ancestor c = List.mem ancestor (ancestors t c)

let paths t ~source ~target =
  check t source;
  check t target;
  let rec go c =
    if String.equal c target then [ [ c ] ]
    else
      List.concat_map (fun p -> List.map (fun path -> c :: path) (go p))
        (parents t c)
  in
  go source

let dot_cluster t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "  subgraph cluster_%s {\n    label=\"%s\";\n" t.name
       t.name);
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s.%s\" [label=\"%s\", shape=box];\n" t.name c
           c))
    (categories t);
  List.iter
    (fun (child, parent) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s.%s\" -> \"%s.%s\";\n" t.name child t.name
           parent))
    (edges t);
  Buffer.add_string buf "  }\n";
  Buffer.contents buf

let to_dot t = "digraph dimension {\n  rankdir=BT;\n" ^ dot_cluster t ^ "}\n"

let pp ppf t =
  Format.fprintf ppf "@[<v>dimension %s:" t.name;
  List.iter
    (fun c ->
      let ps = List.filter (fun p -> p <> all) (parents t c) in
      let arrow =
        if ps = [] then if c = all then "" else " -> All"
        else " -> " ^ String.concat ", " ps
      in
      if c <> all then
        Format.fprintf ppf "@,  %s (level %d)%s" c (level t c) arrow)
    (categories t);
  Format.fprintf ppf "@]"
