module Rel_schema = Mdqa_relational.Rel_schema
module Attribute = Mdqa_relational.Attribute

type t = {
  dimensions : Dim_schema.t list;
  relations : Rel_schema.t list;
  (* predicate name -> origin *)
  cat_preds : (string, string * string) Hashtbl.t;  (* pred -> dim, category *)
  pc_preds : (string, string * string * string) Hashtbl.t;
      (* pred -> dim, parent, child *)
}

(* CamelCase -> snake_case: "MonthDay" -> "month_day". *)
let snake s =
  let buf = Buffer.create (String.length s + 4) in
  String.iteri
    (fun i c ->
      if c >= 'A' && c <= 'Z' then begin
        if i > 0 then Buffer.add_char buf '_';
        Buffer.add_char buf (Char.lowercase_ascii c)
      end
      else Buffer.add_char buf c)
    s;
  Buffer.contents buf

let category_pred c = snake c

let parent_child_pred ~parent ~child = snake parent ^ "_" ^ snake child

let proper_categories d =
  List.filter (fun c -> c <> Dim_schema.all) (Dim_schema.categories d)

let proper_edges d =
  List.filter (fun (_, p) -> p <> Dim_schema.all) (Dim_schema.edges d)

type conflict_kind = Name_clash | Unknown_dimension | Unknown_category

type conflict = { kind : conflict_kind; subject : string; message : string }

let check ~dimensions ~relations =
  let out = ref [] in
  let push kind subject fmt =
    Printf.ksprintf
      (fun m -> out := { kind; subject; message = "Md_schema: " ^ m } :: !out)
      fmt
  in
  (* Unique dimension names and globally unique category names. *)
  let seen_dim = Hashtbl.create 8 and seen_cat = Hashtbl.create 16 in
  List.iter
    (fun d ->
      let n = Dim_schema.name d in
      if Hashtbl.mem seen_dim n then
        push Name_clash n "duplicate dimension %s" n
      else begin
        Hashtbl.add seen_dim n ();
        List.iter
          (fun c ->
            match Hashtbl.find_opt seen_cat c with
            | Some other ->
              push Name_clash n "category %s appears in dimensions %s and %s"
                c other n
            | None -> Hashtbl.add seen_cat c n)
          (proper_categories d)
      end)
    dimensions;
  let cat_preds = Hashtbl.create 16 and pc_preds = Hashtbl.create 16 in
  List.iter
    (fun d ->
      let dim = Dim_schema.name d in
      List.iter
        (fun c -> Hashtbl.replace cat_preds (category_pred c) (dim, c))
        (proper_categories d);
      List.iter
        (fun (child, parent) ->
          let pred = parent_child_pred ~parent ~child in
          if Hashtbl.mem cat_preds pred || Hashtbl.mem pc_preds pred then
            push Name_clash dim "generated predicate %s is ambiguous" pred
          else Hashtbl.replace pc_preds pred (dim, parent, child))
        (proper_edges d))
    dimensions;
  (* Relation validation. *)
  let seen_rel = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let n = Rel_schema.name r in
      if Hashtbl.mem seen_rel n then
        push Name_clash n "duplicate relation %s" n;
      Hashtbl.add seen_rel n ();
      if Hashtbl.mem cat_preds n || Hashtbl.mem pc_preds n then
        push Name_clash n "relation %s collides with a generated predicate" n;
      List.iter
        (fun a ->
          match Attribute.kind a with
          | Attribute.Plain -> ()
          | Attribute.Categorical { dimension; category } -> (
            match
              List.find_opt
                (fun d -> String.equal (Dim_schema.name d) dimension)
                dimensions
            with
            | None ->
              push Unknown_dimension n
                "relation %s references unknown dimension %s" n dimension
            | Some d ->
              if
                (not (Dim_schema.mem_category d category))
                || String.equal category Dim_schema.all
              then
                push Unknown_category n
                  "relation %s references unknown category %s.%s" n
                  dimension category))
        (Rel_schema.attributes r))
    relations;
  match !out with
  | [] -> Ok { dimensions; relations; cat_preds; pc_preds }
  | conflicts -> Error (List.rev conflicts)

let make ~dimensions ~relations =
  match check ~dimensions ~relations with
  | Ok t -> t
  | Error cs -> invalid_arg (List.hd cs).message

let dimensions t = t.dimensions

let dimension t name =
  List.find_opt (fun d -> String.equal (Dim_schema.name d) name) t.dimensions

let relations t = t.relations

let relation t name =
  List.find_opt
    (fun r -> String.equal (Rel_schema.name r) name)
    t.relations

let category_of_pred t pred = Hashtbl.find_opt t.cat_preds pred
let parent_child_of_pred t pred = Hashtbl.find_opt t.pc_preds pred

type position_kind =
  | Plain_pos
  | Category_pos of { dimension : string; category : string }

let position_kind t pred i =
  match relation t pred with
  | Some r ->
    if i < 0 || i >= Rel_schema.arity r then None
    else (
      match Attribute.kind (Rel_schema.attribute r i) with
      | Attribute.Plain -> Some Plain_pos
      | Attribute.Categorical { dimension; category } ->
        Some (Category_pos { dimension; category }))
  | None -> (
    match category_of_pred t pred with
    | Some (dimension, category) ->
      if i = 0 then Some (Category_pos { dimension; category }) else None
    | None -> (
      match parent_child_of_pred t pred with
      | Some (dimension, parent, child) ->
        if i = 0 then Some (Category_pos { dimension; category = parent })
        else if i = 1 then Some (Category_pos { dimension; category = child })
        else None
      | None -> None))

let categorical_positions t =
  let k =
    Hashtbl.fold (fun pred _ acc -> (pred, 0) :: acc) t.cat_preds []
  in
  let o =
    Hashtbl.fold
      (fun pred _ acc -> (pred, 0) :: (pred, 1) :: acc)
      t.pc_preds []
  in
  let r =
    List.concat_map
      (fun rel ->
        List.map
          (fun i -> (Rel_schema.name rel, i))
          (Rel_schema.categorical_positions rel))
      t.relations
  in
  List.sort_uniq compare (k @ o @ r)

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph md_model {\n  rankdir=BT;\n";
  List.iter (fun d -> Buffer.add_string buf (Dim_schema.dot_cluster d))
    t.dimensions;
  List.iter
    (fun r ->
      let name = Rel_schema.name r in
      Buffer.add_string buf
        (Printf.sprintf
           "  \"%s\" [shape=ellipse, style=filled, fillcolor=lightgrey];\n"
           name);
      List.iter
        (fun a ->
          match Attribute.kind a with
          | Attribute.Plain -> ()
          | Attribute.Categorical { dimension; category } ->
            Buffer.add_string buf
              (Printf.sprintf
                 "  \"%s\" -> \"%s.%s\" [style=dashed, arrowhead=none, \
                  label=\"%s\"];\n"
                 name dimension category (Attribute.name a)))
        (Rel_schema.attributes r))
    t.relations;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i d ->
      if i > 0 then Format.pp_print_cut ppf ();
      Dim_schema.pp ppf d)
    t.dimensions;
  List.iter
    (fun r -> Format.fprintf ppf "@,categorical relation %a" Rel_schema.pp r)
    t.relations;
  Format.fprintf ppf "@]"
