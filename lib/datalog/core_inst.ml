module Instance = Mdqa_relational.Instance
module Relation = Mdqa_relational.Relation
module Tuple = Mdqa_relational.Tuple
module Value = Mdqa_relational.Value

let nulls_of inst =
  let acc = ref Value.Set.empty in
  Instance.iter_facts
    (fun _ t ->
      List.iter
        (fun v -> if Value.is_null v then acc := Value.Set.add v !acc)
        (Tuple.to_list t))
    inst;
  !acc

let null_count inst = Value.Set.cardinal (nulls_of inst)

let domain_of inst =
  let acc = ref Value.Set.empty in
  Instance.iter_facts
    (fun _ t ->
      List.iter (fun v -> acc := Value.Set.add v !acc) (Tuple.to_list t))
    inst;
  !acc

(* Does substituting [v] for null [n] map the instance into itself?
   Only tuples containing [n] change; each image must already be
   present. *)
let folds_into inst ~n ~v =
  let ok = ref true in
  let subst x = if Value.equal x n then v else x in
  List.iter
    (fun rel ->
      if !ok then
        Relation.iter
          (fun t ->
            if !ok && Tuple.exists (Value.equal n) t then
              if not (Relation.mem rel (Tuple.map subst t)) then ok := false)
          rel)
    (Instance.relations inst);
  !ok

let compute ?(max_folds = 10_000) start =
  let inst = Instance.copy start in
  let folds = ref 0 in
  let progress = ref true in
  while !progress && !folds < max_folds do
    progress := false;
    let nulls = Value.Set.elements (nulls_of inst) in
    let domain = Value.Set.elements (domain_of inst) in
    (* prefer folding into constants, then into other nulls *)
    let candidates =
      List.filter Value.is_constant domain
      @ List.filter Value.is_null domain
    in
    (try
       List.iter
         (fun n ->
           List.iter
             (fun v ->
               if (not (Value.equal n v)) && folds_into inst ~n ~v then begin
                 ignore (Instance.substitute inst (Value.Map.singleton n v));
                 incr folds;
                 progress := true;
                 raise Exit
               end)
             candidates)
         nulls
     with Exit -> ())
  done;
  inst

(* Homomorphism check: the source instance, with nulls read as
   variables, must match into the target. *)
let hom_exists ~source ~target =
  let atoms =
    let acc = ref [] in
    Instance.iter_facts
      (fun pred t ->
        let args =
          List.map
            (fun v ->
              match v with
              | Value.Null k -> Term.Var (Printf.sprintf "_n%d" k)
              | _ -> Term.Const v)
            (Tuple.to_list t)
        in
        acc := Atom.make pred args :: !acc)
      source;
    !acc
  in
  atoms = [] || Eval.exists target atoms

let hom_equivalent a b = hom_exists ~source:a ~target:b && hom_exists ~source:b ~target:a
