module R = Mdqa_relational

type relation_report = {
  relation : string;
  original_size : int;
  quality_size : int;
  kept : int;
  removed : int;
  added : int;
  ratio : float;
}

let compare_relations ~original ~quality =
  if R.Relation.arity original <> R.Relation.arity quality then
    invalid_arg "Assessment.compare_relations: arity mismatch";
  let o = R.Relation.to_set original and q = R.Relation.to_set quality in
  let kept = R.Tuple.Set.cardinal (R.Tuple.Set.inter o q) in
  let original_size = R.Relation.cardinal original
  and quality_size = R.Relation.cardinal quality in
  { relation = R.Relation.name original;
    original_size;
    quality_size;
    kept;
    removed = original_size - kept;
    added = quality_size - kept;
    ratio =
      (if original_size = 0 then 1.0
       else float_of_int kept /. float_of_int original_size) }

let quality_ratio ~original ~quality =
  (compare_relations ~original ~quality).ratio

let departure ~original ~quality =
  let r = compare_relations ~original ~quality in
  r.removed + r.added

let report ?(partial = false) (a : Context.assessment) =
  List.filter_map
    (fun (orig_name, _) ->
      match
        ( R.Instance.find a.Context.source orig_name,
          Context.quality_version ~partial a orig_name )
      with
      | Some original, Some quality
        when R.Relation.arity original = R.Relation.arity quality ->
        Some (compare_relations ~original ~quality)
      | _ -> None)
    a.Context.context.Context.quality_versions

let pp_relation_report ppf r =
  Format.fprintf ppf
    "%s: %d tuples, %d up to quality (ratio %.2f), %d removed, %d added"
    r.relation r.original_size r.kept r.ratio r.removed r.added

let pp_report ppf rs =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i r ->
      if i > 0 then Format.pp_print_cut ppf ();
      pp_relation_report ppf r)
    rs;
  Format.fprintf ppf "@]"
