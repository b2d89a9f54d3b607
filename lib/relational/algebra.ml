type predicate = Tuple.t -> bool

let select p r = Relation.filter p r

let select_eq pos v r =
  let out = Relation.create (Relation.schema r) in
  List.iter (fun t -> ignore (Relation.add out t)) (Relation.probe r [ (pos, v) ]);
  out

let project ?name ps r =
  let s = Relation.schema r in
  let rname = Option.value name ~default:(Rel_schema.name s) in
  let attrs = List.map (Rel_schema.attribute s) ps in
  (* Projected attribute names can collide (e.g. projecting the same
     position twice); disambiguate with a positional suffix. *)
  let seen = Hashtbl.create 8 in
  let attrs =
    List.map
      (fun a ->
        let n = Attribute.name a in
        if Hashtbl.mem seen n then begin
          let k = Hashtbl.find seen n + 1 in
          Hashtbl.replace seen n k;
          { a with Attribute.name = Printf.sprintf "%s_%d" n k }
        end
        else begin
          Hashtbl.add seen n 0;
          a
        end)
      attrs
  in
  let out = Relation.create (Rel_schema.make rname attrs) in
  Relation.iter (fun t -> ignore (Relation.add out (Tuple.project t ps))) r;
  out

let rename name r =
  let s = Relation.schema r in
  let out = Relation.create (Rel_schema.make name (Rel_schema.attributes s)) in
  Relation.iter (fun t -> ignore (Relation.add out t)) r;
  out

let check_same_arity op a b =
  if Relation.arity a <> Relation.arity b then
    invalid_arg
      (Printf.sprintf "Algebra.%s: arity mismatch (%s/%d vs %s/%d)" op
         (Relation.name a) (Relation.arity a) (Relation.name b)
         (Relation.arity b))

let union a b =
  check_same_arity "union" a b;
  let out = Relation.create (Relation.schema a) in
  Relation.iter (fun t -> ignore (Relation.add out t)) a;
  Relation.iter (fun t -> ignore (Relation.add out t)) b;
  out

let diff a b =
  check_same_arity "diff" a b;
  Relation.filter (fun t -> not (Relation.mem b t)) a

let intersect a b =
  check_same_arity "intersect" a b;
  Relation.filter (fun t -> Relation.mem b t) a

(* Attribute list for a concatenated result, prefixing right-side names
   that clash with left-side ones. *)
let concat_attrs l r =
  let ls = Relation.schema l and rs = Relation.schema r in
  let left = Rel_schema.attributes ls in
  let left_names = List.map Attribute.name left in
  let right =
    List.map
      (fun a ->
        let n = Attribute.name a in
        if List.mem n left_names then
          { a with Attribute.name = Rel_schema.name rs ^ "_" ^ n }
        else a)
      (Rel_schema.attributes rs)
  in
  left @ right

let product ?name l r =
  let rname =
    Option.value name
      ~default:(Relation.name l ^ "_x_" ^ Relation.name r)
  in
  let out = Relation.create (Rel_schema.make rname (concat_attrs l r)) in
  Relation.iter
    (fun tl ->
      Relation.iter
        (fun tr -> ignore (Relation.add out (Tuple.append tl tr)))
        r)
    l;
  out

let join ?name eqs l r =
  match eqs with
  | [] -> product ?name l r
  | _ ->
    let rname =
      Option.value name
        ~default:(Relation.name l ^ "_j_" ^ Relation.name r)
    in
    let out = Relation.create (Rel_schema.make rname (concat_attrs l r)) in
    Relation.iter
      (fun tl ->
        List.iter
          (fun tr -> ignore (Relation.add out (Tuple.append tl tr)))
          (Relation.probe r
             (List.map (fun (lp, rp) -> (rp, Tuple.get tl lp)) eqs)))
      l;
    out

let natural_join ?name l r =
  let ls = Relation.schema l and rs = Relation.schema r in
  let common =
    List.filter_map
      (fun a ->
        let n = Attribute.name a in
        match Rel_schema.position_of rs n with
        | Some rp ->
          (match Rel_schema.position_of ls n with
           | Some lp -> Some (lp, rp)
           | None -> None)
        | None -> None)
      (Rel_schema.attributes ls)
  in
  let joined = join ?name common l r in
  (* Drop the right-side copies of the common attributes. *)
  let drop =
    List.map (fun (_, rp) -> Relation.arity l + rp) common
  in
  let keep =
    List.filter
      (fun p -> not (List.mem p drop))
      (List.init (Relation.arity joined) Fun.id)
  in
  project ~name:(Relation.name joined) keep joined
