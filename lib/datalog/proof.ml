module Instance = Mdqa_relational.Instance
module Relation = Mdqa_relational.Relation
module Tuple = Mdqa_relational.Tuple
module Value = Mdqa_relational.Value

exception Proved

(* Rule applications per branch: polynomially bounded for WS programs,
   a fixed safety bound until the search is tabled. *)
let max_depth = 32

(* Runs the search under [guard], one step per resolution; a stop — a
   trip of [guard] — is returned as its report, after the answers
   emitted so far have been kept.  A search that ran to its end but
   pruned a branch at [max_depth] is reported as a [Depth] exhaustion:
   answers may be missing. *)
let search guard (program : Program.t) inst (q : Query.t) ~emit =
  let rename_counter = ref 0 and pruned = ref false in
  let with_head = Program.tgds_with_head program in
  let fresh = Value.Fresh.create ~start:1_000_000 () in
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
    Guard.count_step guard;
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
        (* (c) apply a TGD whose head unifies with the goal; past
           [max_depth] only note, once, that a branch was pruned *)
        if depth < max_depth || not !pruned then
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
                  | Some _ when depth >= max_depth -> pruned := true
                  | Some s' ->
                    let siblings =
                      List.filteri (fun j _ -> j <> i) head
                    in
                    resolve
                      (tgd'.Tgd.body @ rest)
                      s' (siblings @ lemmas) (depth + 1) pending
                  | None -> ())
                head)
            (with_head (Atom.pred g)))
  in
  match resolve q.Query.body Subst.empty [] 0 q.Query.cmps with
  | () when !pruned ->
    Some
      { Guard.resource = Guard.Depth;
        limit = float_of_int max_depth;
        used = float_of_int (max_depth + 1) }
  | () -> None
  | exception Guard.Exhausted e -> Some e

(* The head's image under [s] when it is ground and null-free: only
   those are certain answers. *)
let certain_image (q : Query.t) s =
  let consts =
    List.filter_map
      (fun t ->
        match Subst.walk s t with
        | Term.Const c when not (Value.is_null c) -> Some c
        | _ -> None)
      q.Query.head
  in
  if List.compare_lengths consts q.Query.head = 0 then
    Some (Tuple.of_list consts)
  else None

(* The search's own safety cap: a fork of the caller's guard, so the
   caller's step budget, deadline, memory watermark and cancellation
   (as of the fork) bound it too, and its steps are charged back. *)
let run ?(guard = Guard.unlimited ()) program inst q ~emit =
  let g = Guard.fork ~max_steps:2_000_000 guard in
  Fun.protect ~finally:(fun () -> Guard.absorb guard g) @@ fun () ->
  search g program inst q ~emit

let answer ?guard program inst q =
  let found = ref Tuple.Set.empty in
  let stop =
    run ?guard program inst q ~emit:(fun s ->
        Option.iter
          (fun t -> found := Tuple.Set.add t !found)
          (certain_image q s))
  in
  let answers = Tuple.Set.elements !found in
  match stop with
  | None -> Guard.Complete answers
  | Some e -> Guard.Degraded (answers, e)

let entails program inst q =
  match run program inst q ~emit:(fun _ -> raise Proved) with
  | _ -> false
  | exception Proved -> true
