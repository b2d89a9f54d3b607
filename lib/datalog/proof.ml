module Instance = Mdqa_relational.Instance
module Relation = Mdqa_relational.Relation
module Tuple = Mdqa_relational.Tuple
module Value = Mdqa_relational.Value

type result = {
  answers : Tuple.t list;
  complete : bool;
  steps : int;
}

exception Truncated
exception Proved

let search ?(max_depth = 32) ?(max_steps = 2_000_000) (program : Program.t)
    inst (q : Query.t) ~steps ~emit =
  let rename_counter = ref 0 in
  let fresh = Value.Fresh.create ~start:1_000_000 () in
  let tick () =
    incr steps;
    if !steps > max_steps then raise Truncated
  in
  (* Comparisons: ground ones must hold and must not involve nulls
     (a null-dependent comparison is not certain). *)
  let check_cmps s cmps =
    let rec go pending = function
      | [] -> Some (List.rev pending)
      | c :: rest -> (
        let c' = Subst.apply_cmp s c in
        match c'.Atom.Cmp.lhs, c'.Atom.Cmp.rhs with
        | Term.Const a, Term.Const b ->
          if Value.is_null a || Value.is_null b then None
          else if Atom.Cmp.holds c'.Atom.Cmp.op a b then go pending rest
          else None
        | _ -> go (c :: pending) rest)
    in
    go [] cmps
  in
  let rec resolve goals s lemmas depth cmps =
    tick ();
    match check_cmps s cmps with
    | None -> ()
    | Some pending -> (
      match goals with
      | [] -> if pending = [] then emit s
      | g :: rest ->
        let g = Subst.apply_atom s g in
        (* (a) match a ground fact of the extensional database *)
        (match Instance.find inst (Atom.pred g) with
         | None -> ()
         | Some r ->
           List.iter
             (fun tuple ->
               match
                 Unify.match_against ~init:s ~pattern:g
                   (Atom.of_fact (Atom.pred g) tuple)
               with
               | Some s' -> resolve rest s' lemmas depth pending
               | None -> ())
             (Relation.probe r (Atom.const_args g)));
        (* (b) match a lemma: a sibling head atom of an earlier rule
           application in this branch *)
        List.iter
          (fun lemma ->
            match Unify.unify ~init:s g lemma with
            | Some s' -> resolve rest s' lemmas depth pending
            | None -> ())
          lemmas;
        (* (c) apply a TGD whose head unifies with the goal *)
        if depth < max_depth then
          List.iter
            (fun tgd ->
              incr rename_counter;
              let tgd' =
                Tgd.rename ~suffix:(Printf.sprintf "#%d" !rename_counter) tgd
              in
              (* Existentials become fresh nulls before unification. *)
              let ex = Tgd.existential_vars tgd' in
              let ex_subst =
                Term.Var_set.fold
                  (fun v acc ->
                    Subst.bind_exn acc v
                      (Term.Const (Value.Fresh.next fresh)))
                  ex Subst.empty
              in
              let head = Subst.apply_atoms ex_subst tgd'.Tgd.head in
              List.iteri
                (fun i h ->
                  match Unify.unify ~init:s g h with
                  | Some s' ->
                    let siblings =
                      List.filteri (fun j _ -> j <> i) head
                    in
                    resolve
                      (tgd'.Tgd.body @ rest)
                      s' (siblings @ lemmas) (depth + 1) pending
                  | None -> ())
                head)
            (Program.tgds_with_head program (Atom.pred g)))
  in
  resolve q.Query.body Subst.empty [] 0 q.Query.cmps

let head_image (q : Query.t) s =
  List.map (fun t -> Subst.walk s t) q.Query.head

let answer ?max_depth ?max_steps program inst q =
  let steps = ref 0 in
  let found = ref Tuple.Set.empty in
  let complete = ref true in
  (try
     search ?max_depth ?max_steps program inst q ~steps ~emit:(fun s ->
         let img = head_image q s in
         let ground =
           List.for_all
             (function
               | Term.Const c -> not (Value.is_null c)
               | Term.Var _ -> false)
             img
         in
         if ground then
           found :=
             Tuple.Set.add
               (Tuple.of_list
                  (List.map
                     (function
                       | Term.Const c -> c
                       | Term.Var _ -> assert false)
                     img))
               !found)
   with Truncated -> complete := false);
  { answers = Tuple.Set.elements !found; complete = !complete; steps = !steps }

let entails ?max_depth ?max_steps program inst q =
  let steps = ref 0 in
  try
    search ?max_depth ?max_steps program inst q ~steps ~emit:(fun _ ->
        raise Proved);
    false
  with
  | Proved -> true
  | Truncated -> false
