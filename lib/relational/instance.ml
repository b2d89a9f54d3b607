type t = { rels : (string, Relation.t) Hashtbl.t }

let create () = { rels = Hashtbl.create 16 }

let find i name = Hashtbl.find_opt i.rels name
let get i name =
  match find i name with Some r -> r | None -> raise Not_found

let declare i s =
  let n = Rel_schema.name s in
  match find i n with
  | Some r ->
    if not (Rel_schema.equal (Relation.schema r) s) then
      invalid_arg
        (Printf.sprintf "Instance.declare: schema clash for %s" n);
    r
  | None ->
    let r = Relation.create s in
    Hashtbl.add i.rels n r;
    r

let of_relations rels =
  let i = create () in
  List.iter
    (fun r ->
      let n = Relation.name r in
      if Hashtbl.mem i.rels n then
        invalid_arg
          (Printf.sprintf "Instance.of_relations: duplicate relation %s" n);
      Hashtbl.add i.rels n r)
    rels;
  i

let add_tuple i name t = Relation.add (get i name) t

let relations i =
  Hashtbl.fold (fun _ r acc -> r :: acc) i.rels []
  |> List.sort (fun a b -> String.compare (Relation.name a) (Relation.name b))

let total_tuples i =
  Hashtbl.fold (fun _ r acc -> acc + Relation.cardinal r) i.rels 0

let iter_facts f i =
  List.iter (fun r -> Relation.iter (f (Relation.name r)) r) (relations i)

let substitute i sigma =
  if Value.Map.is_empty sigma then []
  else
    List.filter_map
      (fun r ->
        let images = Relation.substitute r sigma in
        if Tuple.Set.is_empty images then None
        else Some (Relation.name r, images))
      (relations i)

let copy i =
  let j = create () in
  Hashtbl.iter (fun n r -> Hashtbl.add j.rels n (Relation.copy r)) i.rels;
  j

let equal a b =
  let names i =
    Hashtbl.fold (fun n _ acc -> n :: acc) i.rels [] |> List.sort compare
  in
  names a = names b
  && List.for_all
       (fun n -> Relation.equal (get a n) (get b n))
       (names a)

let merge_into ~dst ~src =
  List.iter
    (fun r -> Relation.union (declare dst (Relation.schema r)) r)
    (relations src)

let pp ppf i =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun k r ->
      if k > 0 then Format.fprintf ppf "@,";
      Relation.pp ppf r)
    (relations i);
  Format.fprintf ppf "@]"
