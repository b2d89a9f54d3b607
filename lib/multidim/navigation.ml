module R = Mdqa_relational

let retarget_schema rel position to_category ~dimension ~name =
  let rs = R.Relation.schema rel in
  let attrs =
    List.mapi
      (fun i a ->
        if i = position then
          R.Attribute.categorical (R.Attribute.name a) ~dimension
            ~category:to_category
        else a)
      (R.Rel_schema.attributes rs)
  in
  R.Rel_schema.make (Option.value name ~default:(R.Rel_schema.name rs)) attrs

let navigate step di ~relation ~position ~to_category ?name ~transform () =
  let dimension = Dim_schema.name (Dim_instance.schema di) in
  R.Relation.of_tuples
    (retarget_schema relation position to_category ~dimension ~name)
    (R.Relation.fold
       (fun tuple acc ->
         List.fold_left
           (fun acc target ->
             transform (R.Tuple.set tuple position target) :: acc)
           acc
           (step di (R.Tuple.get tuple position) ~to_category))
       relation [])

let rollup di ~relation ~position ~to_category ?name () =
  navigate Dim_instance.rollup di ~relation ~position ~to_category ?name
    ~transform:Fun.id ()

let drilldown di ~relation ~position ~to_category ?(null_positions = [])
    ?fresh ?name () =
  let fresh =
    match fresh with Some f -> f | None -> R.Value.Fresh.create ()
  in
  let transform t =
    List.fold_left
      (fun t i -> R.Tuple.set t i (R.Value.Fresh.next fresh))
      t null_positions
  in
  navigate Dim_instance.drilldown di ~relation ~position ~to_category ?name
    ~transform ()
