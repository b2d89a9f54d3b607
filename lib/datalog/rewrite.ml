module Tuple = Mdqa_relational.Tuple

type rewriting = {
  ucq : Query.t list;
  expansions : int;
  pruned : int;
}

(* A canonical key for a CQ: variables renamed in first-occurrence
   order over head, body and comparisons.  Two alpha-equivalent CQs
   with the same atom order map to the same key. *)
let canonical_key (head : Term.t list) (body : Atom.t list)
    (cmps : Atom.Cmp.t list) =
  let mapping = Hashtbl.create 16 in
  let counter = ref 0 in
  let rename t =
    match t with
    | Term.Const _ -> t
    | Term.Var v -> (
      match Hashtbl.find_opt mapping v with
      | Some v' -> Term.Var v'
      | None ->
        incr counter;
        let v' = Printf.sprintf "X%d" !counter in
        Hashtbl.add mapping v v';
        Term.Var v')
  in
  let head' = List.map rename head in
  let body' =
    List.map (fun a -> Atom.make (Atom.pred a) (List.map rename (Atom.args a)))
      body
  in
  let cmps' =
    List.map
      (fun (c : Atom.Cmp.t) ->
        Atom.Cmp.make c.Atom.Cmp.op (rename c.Atom.Cmp.lhs)
          (rename c.Atom.Cmp.rhs))
      cmps
  in
  Format.asprintf "%a|%a|%a"
    (Format.pp_print_list Term.pp)
    head'
    (Format.pp_print_list Atom.pp)
    body'
    (Format.pp_print_list Atom.Cmp.pp)
    cmps'

(* Count variable occurrences over body atoms and head terms. *)
let occurrence_counts head body =
  let counts = Hashtbl.create 16 in
  let bump = function
    | Term.Var v ->
      Hashtbl.replace counts v
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
    | Term.Const _ -> ()
  in
  List.iter bump head;
  List.iter (fun a -> List.iter bump (Atom.args a)) body;
  counts

(* Unfolding applicability: each existential position of the head must
   meet an unshared non-answer variable of the query. *)
let applicable ~ex_vars ~counts (goal : Atom.t) (head_atom : Atom.t) =
  List.for_all2
    (fun g h ->
      match h with
      | Term.Var v when Term.Var_set.mem v ex_vars -> (
        match g with
        | Term.Var gv ->
          Option.value ~default:0 (Hashtbl.find_opt counts gv) = 1
        | Term.Const _ -> false)
      | _ -> true)
    (Atom.args goal) (Atom.args head_atom)

(* Unfold [q] depth-first, handing each new disjunct to [on_cq] as it
   is produced (after charging it to the guard's CQ budget), and
   counting unfolding steps in [expansions].
   @raise Guard.Exhausted on a trip. *)
let unfold guard ~expansions (program : Program.t) (q : Query.t) ~on_cq =
  let seen = Hashtbl.create 64 in
  let counter = ref 0 in
  let rec add (head, body, cmps) =
    let key = canonical_key head body cmps in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Guard.count_cq guard;
      on_cq (Query.make ~name:q.Query.name ~cmps ~head body);
      expand (head, body, cmps)
    end
  and expand (head, body, cmps) =
    let counts = occurrence_counts head body in
    List.iteri
      (fun i goal ->
        List.iter
          (fun tgd ->
            incr counter;
            Guard.tick guard;
            let tgd' =
              Tgd.rename ~suffix:(Printf.sprintf "~%d" !counter) tgd
            in
            let ex_vars = Tgd.existential_vars tgd' in
            List.iter
              (fun h ->
                if
                  String.equal (Atom.pred h) (Atom.pred goal)
                  && Atom.arity h = Atom.arity goal
                  && applicable ~ex_vars ~counts goal h
                then
                  match Unify.unify goal h with
                  | None -> ()
                  | Some s ->
                    incr expansions;
                    let body' =
                      List.filteri (fun j _ -> j <> i) body
                      |> List.map (Subst.apply_atom s)
                    in
                    let new_atoms = Subst.apply_atoms s tgd'.Tgd.body in
                    let head' = List.map (Subst.apply_term s) head in
                    let cmps' = List.map (Subst.apply_cmp s) cmps in
                    add (head', new_atoms @ body', cmps'))
              tgd'.Tgd.head)
          (Program.tgds_with_head program (Atom.pred goal)))
      body
  in
  Mdqa_obs.Trace.with_span "rewrite"
    ~attrs:[ ("query", q.Query.name) ]
  @@ fun () ->
  add (q.Query.head, q.Query.body, q.Query.cmps)

(* The unfolding's own cap of 10,000 disjuncts: a fork of the caller's
   guard, which bounds it too and is charged what it spent. *)
let capped ?(guard = Guard.unlimited ()) f ~finish =
  let g = Guard.fork ~max_cqs:10_000 guard in
  let outcome =
    match f g with
    | () -> Guard.Complete (finish ())
    | exception Guard.Exhausted e -> Guard.Degraded (finish (), e)
  in
  Guard.absorb guard g;
  outcome

let rewrite ?guard program q =
  let out = ref [] and expansions = ref 0 in
  capped ?guard
    (fun g ->
      unfold g ~expansions program q ~on_cq:(fun cq -> out := cq :: !out))
    ~finish:(fun () ->
      (* latest disjunct first *)
      let ucq = !out in
      let kept = Containment.prune_ucq ucq in
      { ucq = kept;
        expansions = !expansions;
        pruned = List.length ucq - List.length kept })

let answers ?guard program inst q =
  let all = ref Tuple.Set.empty in
  capped ?guard
    (fun g ->
      unfold g ~expansions:(ref 0) program q ~on_cq:(fun cq ->
          List.iter
            (fun t -> all := Tuple.Set.add t !all)
            (Query.certain ~guard:g inst cq)))
    ~finish:(fun () -> Tuple.Set.elements !all)

let pp_rewriting ppf r =
  Format.fprintf ppf "@[<v>UCQ with %d disjuncts (%d expansions, %d pruned):"
    (List.length r.ucq) r.expansions r.pruned;
  List.iter (fun cq -> Format.fprintf ppf "@,  %a" Query.pp cq) r.ucq;
  Format.fprintf ppf "@]"
