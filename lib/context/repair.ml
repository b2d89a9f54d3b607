open Mdqa_datalog
module R = Mdqa_relational
module Md_ontology = Mdqa_multidim.Md_ontology

type deletion = { relation : string; tuple : R.Tuple.t }

type witness = {
  constraint_name : string;
  deletions : deletion list;
}

let deletion_compare a b =
  let c = String.compare a.relation b.relation in
  if c <> 0 then c else R.Tuple.compare a.tuple b.tuple

let deletion_equal a b = deletion_compare a b = 0

(* Ground instantiations of a constraint body that are deletable. *)
let witness_of ~deletable ~name body subst =
  let deletions =
    List.filter_map
      (fun atom ->
        let ground = Subst.apply_atom subst atom in
        if Atom.is_ground ground && deletable (Atom.pred ground) then
          Some { relation = Atom.pred ground; tuple = Atom.to_tuple ground }
        else None)
      body
    |> List.sort_uniq deletion_compare
  in
  { constraint_name = name; deletions }

let violations (program : Program.t) inst ~deletable =
  let idb = Program.idb_predicates program in
  let derived_in body =
    List.find_opt (fun a -> List.mem (Atom.pred a) idb) body
  in
  let ( let* ) = Result.bind in
  let check_body ~name body collect =
    match derived_in body with
    | Some a ->
      Error
        (Printf.sprintf
           "constraint %s involves derived predicate %s: deletions on the \
            extensional data cannot repair it in general"
           name (Atom.pred a))
    | None -> Ok (collect ())
  in
  let* nc_witnesses =
    List.fold_left
      (fun acc (nc : Nc.t) ->
        let* acc = acc in
        let* ws =
          check_body ~name:nc.Nc.name nc.Nc.body (fun () ->
              List.map
                (witness_of ~deletable ~name:nc.Nc.name nc.Nc.body)
                (Eval.answers ~cmps:nc.Nc.cmps inst nc.Nc.body))
        in
        Ok (ws @ acc))
      (Ok []) program.Program.ncs
  in
  let* egd_witnesses =
    List.fold_left
      (fun acc (egd : Egd.t) ->
        let* acc = acc in
        let* ws =
          check_body ~name:egd.Egd.name egd.Egd.body (fun () ->
              List.filter_map
                (fun s ->
                  match
                    (Subst.apply_term s egd.Egd.lhs,
                     Subst.apply_term s egd.Egd.rhs)
                  with
                  | Term.Const x, Term.Const y
                    when (not (R.Value.equal x y))
                         && R.Value.is_constant x && R.Value.is_constant y ->
                    Some (witness_of ~deletable ~name:egd.Egd.name egd.Egd.body s)
                  | _ -> None)
                (Eval.answers inst egd.Egd.body))
        in
        Ok (ws @ acc))
      (Ok []) program.Program.egds
  in
  let all = nc_witnesses @ egd_witnesses in
  match List.find_opt (fun w -> w.deletions = []) all with
  | Some w ->
    Error
      (Printf.sprintf
         "violation of %s involves no deletable tuple: not repairable"
         w.constraint_name)
  | None ->
    (* drop duplicate witnesses (same deletion options) *)
    let key w = List.map (fun d -> (d.relation, d.tuple)) w.deletions in
    let seen = Hashtbl.create 16 in
    Ok
      (List.filter
         (fun w ->
           let k = key w in
           if Hashtbl.mem seen k then false
           else begin
             Hashtbl.add seen k ();
             true
           end)
         all)

let hits deletion witness = List.exists (deletion_equal deletion) witness.deletions

(* All minimal hitting sets via branching on the first uncovered
   witness; non-minimal candidates are filtered at the end.  The guard
   bounds the branch count (and deadline / memory / cancellation); on a
   trip the hitting sets found so far still yield well-formed, minimal
   repairs. *)
let repairs ?guard ?(max_repairs = 64) witnesses =
  let guard =
    match guard with
    | Some g -> g
    | None -> Guard.create ~max_repair_branches:(max_repairs * 64) ()
  in
  let results = ref [] in
  let rec go chosen remaining =
    let body () = go_body chosen remaining in
    if Mdqa_obs.Trace.active () then
      Mdqa_obs.Trace.with_span "repair.branch"
        ~attrs:[ ("chosen", string_of_int (List.length chosen)) ]
        body
    else body ()
  and go_body chosen remaining =
    Guard.count_repair_branch guard;
    match remaining with
    | [] -> results := List.rev chosen :: !results
    | w :: _ ->
      List.iter
        (fun d ->
          if not (List.exists (deletion_equal d) chosen) then
            let remaining' =
              List.filter (fun w' -> not (hits d w')) remaining
            in
            go (d :: chosen) remaining')
        w.deletions
  in
  let finish () =
    let as_sorted r = List.sort_uniq deletion_compare r in
    let candidates =
      List.sort_uniq compare (List.map as_sorted !results)
    in
    let subset a b =
      List.for_all (fun d -> List.exists (deletion_equal d) b) a
    in
    let minimal =
      List.filter
        (fun r ->
          not
            (List.exists
               (fun r' -> r' <> r && subset r' r)
               candidates))
        candidates
    in
    let rec take n = function
      | [] -> []
      | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest
    in
    take max_repairs minimal
  in
  match go [] witnesses with
  | () -> Guard.Complete (finish ())
  | exception Guard.Exhausted e -> Guard.Degraded (finish (), e)

let greedy_repair witnesses =
  let rec go acc remaining =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      (* pick the deletion hitting the most remaining witnesses *)
      let best = ref None in
      List.iter
        (fun w ->
          List.iter
            (fun d ->
              let count =
                List.length (List.filter (hits d) remaining)
              in
              match !best with
              | Some (_, c) when c >= count -> ()
              | _ -> best := Some (d, count))
            w.deletions)
        remaining;
      (match !best with
       | None -> List.rev acc
       | Some (d, _) ->
         go (d :: acc) (List.filter (fun w -> not (hits d w)) remaining))
  in
  go [] witnesses

let apply inst deletions =
  let out = R.Instance.copy inst in
  List.iter
    (fun d ->
      match R.Instance.find out d.relation with
      | Some rel -> ignore (R.Relation.remove rel d.tuple)
      | None -> ())
    deletions;
  out

(* The deletable predicates of a context: the ontology's categorical
   relation data and the mapped copies — never dimension facts or
   external sources. *)
let context_deletable (ctx : Context.t) =
  let data_preds =
    List.map R.Relation.name
      (R.Instance.relations ctx.Context.ontology.Md_ontology.data)
  in
  let mapped = List.map (fun m -> m.Context.target) ctx.Context.mappings in
  fun pred -> List.mem pred data_preds || List.mem pred mapped

let assess_repaired ?guard ctx ~source =
  let prepared = Context.prepare ctx ~source in
  let program = Context.program ctx in
  match violations program prepared ~deletable:(context_deletable ctx) with
  | Error _ as e -> e
  | Ok [] ->
    Ok
      (Context.assess_prepared ?guard ctx ~source ~prepared, [])
  | Ok witnesses ->
    let fix = greedy_repair witnesses in
    let repaired = apply prepared fix in
    Ok
      (Context.assess_prepared ?guard ctx ~source ~prepared:repaired, fix)

let cautious_answers ?guard ?max_repairs ctx ~source q =
  let prepared = Context.prepare ctx ~source in
  let program = Context.program ctx in
  match violations program prepared ~deletable:(context_deletable ctx) with
  | Error e -> Error e
  | Ok witnesses ->
    let repair_sets =
      match witnesses with
      | [] -> Guard.Complete [ [] ]
      | _ -> repairs ?guard ?max_repairs witnesses
    in
    (* the same guard governs every per-repair assessment, so the
       budget is global to the whole cautious-answering run; a chase
       trip surfaces through the assessment outcome, never an
       exception *)
    let degraded = ref (Guard.degraded repair_sets) in
    let note_degraded a =
      match (!degraded, Context.degradation a) with
      | None, Some e -> degraded := Some e
      | _ -> ()
    in
    let answer_sets =
      List.map
        (fun dels ->
          let a =
            Context.assess_prepared ?guard ctx ~source
              ~prepared:(apply prepared dels)
          in
          note_degraded a;
          match Context.clean_answers ~partial:true a q with
          | Some answers -> R.Tuple.Set.of_list answers
          | None -> R.Tuple.Set.empty)
        (Guard.value repair_sets)
    in
    let inter =
      match answer_sets with
      | [] -> []
      | first :: rest ->
        R.Tuple.Set.elements (List.fold_left R.Tuple.Set.inter first rest)
    in
    Ok
      (match !degraded with
       | None -> Guard.Complete inter
       | Some e -> Guard.Degraded (inter, e))

let pp_deletion ppf d =
  Format.fprintf ppf "%s%a" d.relation R.Tuple.pp d.tuple
