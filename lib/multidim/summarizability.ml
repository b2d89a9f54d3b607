module Value = Mdqa_relational.Value

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

let diagnose inst =
  let schema = Dim_instance.schema inst in
  let member_violations category =
    let above = Dim_schema.ancestors schema category
    and parents = Dim_schema.parents schema category in
    fun member ->
      let covered =
        List.filter_map (Dim_instance.category_of inst)
          (Dim_instance.member_parents inst member)
      in
      List.filter_map
        (fun ancestor_category ->
          match
            Dim_instance.rollup inst member ~to_category:ancestor_category
          with
          | _ :: _ :: _ as ancestors ->
            Some (Non_strict { member; category; ancestor_category; ancestors })
          | _ -> None)
        above
      @ List.filter_map
          (fun parent_category ->
            if List.mem parent_category covered then None
            else Some (Non_covering { member; category; parent_category }))
          parents
  in
  let violations =
    List.concat_map
      (fun cat ->
        if cat = Dim_schema.all then []
        else
          List.concat_map (member_violations cat)
            (Dim_instance.members inst cat))
      (Dim_schema.categories schema)
  in
  { strict =
      not (List.exists (function Non_strict _ -> true | _ -> false) violations);
    homogeneous =
      not
        (List.exists (function Non_covering _ -> true | _ -> false) violations);
    violations }

let summarizable inst ~from_category ~to_category =
  let schema = Dim_instance.schema inst in
  Dim_schema.is_ancestor schema ~ancestor:to_category from_category
  && List.for_all
       (fun m ->
         List.length (Dim_instance.rollup inst m ~to_category) = 1)
       (Dim_instance.members inst from_category)

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
