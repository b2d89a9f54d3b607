module R = Mdqa_relational

type op = Sum | Count | Avg | Min | Max

type row = {
  group : R.Value.t;
  value : float;
  tuples : int;
}

type acc = {
  mutable total : float;
  mutable count : int;
  mutable vmin : float;
  mutable vmax : float;
}

let numeric = function
  | R.Value.Int i -> Some (float_of_int i)
  | R.Value.Real r -> Some r
  | R.Value.Sym _ | R.Value.Null _ -> None

let rollup di ~relation ~group_position ~to_category ?value_position ~op
    ?(check = true) () =
  let ( let* ) = Result.bind in
  let* () =
    if group_position < 0 || group_position >= R.Relation.arity relation then
      Error
        (Printf.sprintf "group position %d out of range" group_position)
    else Ok ()
  in
  (* the category the grouped attribute ranges over, from the data *)
  let* from_category =
    let cats =
      R.Relation.fold
        (fun t acc ->
          match Dim_instance.category_of di (R.Tuple.get t group_position) with
          | Some c when not (List.mem c acc) -> c :: acc
          | _ -> acc)
        relation []
    in
    match cats with
    | [] -> Error "no tuple carries a known member at the group position"
    | [ c ] -> Ok c
    | cs ->
      Error
        (Printf.sprintf "mixed categories at the group position: %s"
           (String.concat ", " cs))
  in
  let schema = Dim_instance.schema di in
  let* () =
    if Dim_schema.is_ancestor schema ~ancestor:to_category from_category then
      Ok ()
    else
      Error
        (Printf.sprintf "%s does not roll up to %s" from_category to_category)
  in
  let* () =
    if (not check) || Dim_instance.summarizable di ~from_category ~to_category
    then Ok ()
    else
      Error
        (Printf.sprintf
           "roll-up %s -> %s is not summarizable (non-strict or non-covering \
            members); aggregating would be incorrect"
           from_category to_category)
  in
  let* get_value =
    match op, value_position with
    | Count, _ -> Ok (fun _ -> Ok 1.0)
    | _, None -> Error "this aggregate needs a value position"
    | _, Some vp ->
      if vp < 0 || vp >= R.Relation.arity relation then
        Error (Printf.sprintf "value position %d out of range" vp)
      else
        Ok
          (fun t ->
            match numeric (R.Tuple.get t vp) with
            | Some x -> Ok x
            | None ->
              Error
                (Format.asprintf "non-numeric value %a at position %d"
                   R.Value.pp (R.Tuple.get t vp) vp))
  in
  let groups : (R.Value.t, acc) Hashtbl.t = Hashtbl.create 16 in
  let* () =
    R.Relation.fold
      (fun t acc_result ->
        let* () = acc_result in
        let* x = get_value t in
        let ancestors =
          Dim_instance.rollup di (R.Tuple.get t group_position) ~to_category
        in
        List.iter
          (fun g ->
            let cell =
              match Hashtbl.find_opt groups g with
              | Some c -> c
              | None ->
                let c =
                  { total = 0.0; count = 0; vmin = infinity; vmax = neg_infinity }
                in
                Hashtbl.add groups g c;
                c
            in
            cell.total <- cell.total +. x;
            cell.count <- cell.count + 1;
            cell.vmin <- Float.min cell.vmin x;
            cell.vmax <- Float.max cell.vmax x)
          ancestors;
        Ok ())
      relation (Ok ())
  in
  let rows =
    Hashtbl.fold
      (fun g cell acc ->
        let value =
          match op with
          | Sum -> cell.total
          | Count -> float_of_int cell.count
          | Avg -> cell.total /. float_of_int cell.count
          | Min -> cell.vmin
          | Max -> cell.vmax
        in
        { group = g; value; tuples = cell.count } :: acc)
      groups []
    |> List.sort (fun a b -> R.Value.compare a.group b.group)
  in
  Ok rows

let pp_row ppf r =
  Format.fprintf ppf "%a: %g (%d tuples)" R.Value.pp r.group r.value r.tuples
