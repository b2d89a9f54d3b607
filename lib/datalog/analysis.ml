type position = string * int

module Pos_set = Set.Make (struct
  type t = position
  let compare = compare
end)

let positions_of_var atoms v =
  List.concat_map
    (fun a -> List.map (fun i -> (Atom.pred a, i)) (Atom.var_positions a v))
    atoms

(* [v] occurs in [atoms], and only at positions of [set]. *)
let only_at set atoms v =
  match positions_of_var atoms v with
  | [] -> false
  | pos -> List.for_all (fun p -> Pos_set.mem p set) pos

let add_all set ps = List.fold_left (fun s p -> Pos_set.add p s) set ps

type engine = Chase | Proof | Rewrite

type classes = {
  linear : bool;
  guarded : bool;
  weakly_guarded : bool;
  sticky : bool;
  weakly_sticky : bool;
  weakly_acyclic : bool;
  warded : bool;
}

type separability = { separable : bool; offending : (Egd.t * string) list }

type t = {
  program : Program.t;
  infinite_rank : Pos_set.t;
  affected : Pos_set.t;
  marked : (string * Term.Var_set.t) list;
  violations : (Tgd.t * string) list;
  classes : classes;
  egds : separability;
  acyclic : bool;
}

(* --- the position graph ----------------------------------------------- *)

(* Successors of each position: for every TGD and frontier variable x at
   body position πb, an ordinary edge to each head position of x and a
   special edge to each head position of an existential variable.  The
   special edges are returned apart; reachability ignores the kinds. *)
let position_graph (tgds : Tgd.t list) =
  let succ = Hashtbl.create 64 and special = ref [] in
  let edge u v = Hashtbl.add succ u v in
  List.iter
    (fun (tgd : Tgd.t) ->
      let invented =
        Term.Var_set.fold
          (fun z acc -> positions_of_var tgd.Tgd.head z @ acc)
          (Tgd.existential_vars tgd) []
      in
      Term.Var_set.iter
        (fun x ->
          let heads = positions_of_var tgd.Tgd.head x in
          List.iter
            (fun pb ->
              List.iter (edge pb) heads;
              List.iter
                (fun pz ->
                  edge pb pz;
                  special := (pb, pz) :: !special)
                invented)
            (positions_of_var tgd.Tgd.body x))
        (Tgd.frontier tgd))
    tgds;
  (Hashtbl.find_all succ, List.sort_uniq compare !special)

let reachable succ start =
  let rec go seen p =
    List.fold_left
      (fun seen q ->
        if Pos_set.mem q seen then seen else go (Pos_set.add q seen) q)
      seen (succ p)
  in
  go (Pos_set.singleton start) start

(* Positions reachable from a special edge that lies on a cycle. *)
let infinite_rank tgds =
  let succ, special = position_graph tgds in
  let reach = Hashtbl.create 16 in
  let reach v =
    match Hashtbl.find_opt reach v with
    | Some r -> r
    | None ->
      let r = reachable succ v in
      Hashtbl.add reach v r;
      r
  in
  List.fold_left
    (fun acc (u, v) ->
      if Pos_set.mem u (reach v) then Pos_set.union acc (reach v) else acc)
    Pos_set.empty special

(* Positions of existential variables, closed under frontier variables
   occurring in a body only at affected positions. *)
let affected (tgds : Tgd.t list) =
  let base =
    List.fold_left
      (fun acc (tgd : Tgd.t) ->
        Term.Var_set.fold
          (fun z acc -> add_all acc (positions_of_var tgd.Tgd.head z))
          (Tgd.existential_vars tgd) acc)
      Pos_set.empty tgds
  in
  let step affected =
    List.fold_left
      (fun acc (tgd : Tgd.t) ->
        Term.Var_set.fold
          (fun x acc ->
            if only_at affected tgd.Tgd.body x then
              add_all acc (positions_of_var tgd.Tgd.head x)
            else acc)
          (Tgd.frontier tgd) acc)
      affected tgds
  in
  let rec fix s =
    let s' = step s in
    if Pos_set.equal s s' then s else fix s'
  in
  fix base

(* --- the sticky marking ------------------------------------------------ *)

let marked_vars marked (tgd : Tgd.t) =
  Option.value ~default:Term.Var_set.empty
    (List.assoc_opt tgd.Tgd.name marked)

let positions_marked (tgds : Tgd.t list) marked_vars =
  List.fold_left
    (fun acc (tgd : Tgd.t) ->
      Term.Var_set.fold
        (fun v acc -> add_all acc (positions_of_var tgd.Tgd.body v))
        (marked_vars tgd) acc)
    Pos_set.empty tgds

(* Base step: the body variables absent from the head.  Propagation: a
   frontier variable with a head occurrence at a marked position. *)
let mark (tgds : Tgd.t list) =
  let marks = Hashtbl.create 16 in
  let marked (tgd : Tgd.t) =
    Option.value ~default:Term.Var_set.empty
      (Hashtbl.find_opt marks tgd.Tgd.name)
  in
  let add (tgd : Tgd.t) v =
    let cur = marked tgd in
    let next = Term.Var_set.add v cur in
    Hashtbl.replace marks tgd.Tgd.name next;
    next != cur
  in
  List.iter
    (fun (tgd : Tgd.t) ->
      Term.Var_set.iter
        (fun v -> ignore (add tgd v))
        (Term.Var_set.diff (Tgd.body_vars tgd) (Tgd.head_vars tgd)))
    tgds;
  let rec propagate () =
    let mp = positions_marked tgds marked in
    let changed =
      List.fold_left
        (fun changed (tgd : Tgd.t) ->
          Term.Var_set.fold
            (fun x changed ->
              if
                List.exists
                  (fun p -> Pos_set.mem p mp)
                  (positions_of_var tgd.Tgd.head x)
              then add tgd x || changed
              else changed)
            (Tgd.frontier tgd) changed)
        false tgds
    in
    if changed then propagate ()
  in
  propagate ();
  List.of_seq (Hashtbl.to_seq marks)

(* --- the classes ------------------------------------------------------- *)

let guard_exists (tgd : Tgd.t) ~must_cover =
  Term.Var_set.is_empty must_cover
  || List.exists
       (fun a -> Term.Var_set.subset must_cover (Atom.vars a))
       tgd.Tgd.body

(* Per rule, the dangerous variables (harmful, i.e. only at affected
   body positions, and propagated to the head) lie together in one body
   atom that shares only harmless variables with the others. *)
let warded_rule affected (tgd : Tgd.t) =
  let harmful = only_at affected tgd.Tgd.body in
  let dangerous =
    Term.Var_set.filter
      (fun v -> harmful v && Term.Var_set.mem v (Tgd.head_vars tgd))
      (Tgd.body_vars tgd)
  in
  Term.Var_set.is_empty dangerous
  || List.exists
       (fun ward ->
         Term.Var_set.subset dangerous (Atom.vars ward)
         && List.for_all
              (fun other ->
                other == ward
                || Term.Var_set.for_all
                     (fun v -> not (harmful v))
                     (Term.Var_set.inter (Atom.vars ward) (Atom.vars other)))
              tgd.Tgd.body)
       tgd.Tgd.body

(* --- EGD separability -------------------------------------------------- *)

let check_egds (program : Program.t) ~allowed =
  let offending =
    List.concat_map
      (fun (egd : Egd.t) ->
        Term.Var_set.fold
          (fun v acc ->
            if List.for_all allowed (positions_of_var egd.Egd.body v) then acc
            else (egd, v) :: acc)
          (Egd.equated_vars egd) [])
      program.Program.egds
  in
  { separable = offending = []; offending }

let within_positions program ~closed =
  let closed = Pos_set.of_list closed in
  check_egds program ~allowed:(fun p -> Pos_set.mem p closed)

(* --- the analysis ------------------------------------------------------ *)

let analyse (program : Program.t) =
  let tgds = program.Program.tgds in
  let infinite_rank = infinite_rank tgds and affected = affected tgds in
  let marked = mark tgds in
  let repeated_marked tgd =
    Term.Var_set.inter (Tgd.repeated_body_vars tgd) (marked_vars marked tgd)
  in
  let violations =
    List.concat_map
      (fun (tgd : Tgd.t) ->
        Term.Var_set.fold
          (fun v acc ->
            if only_at infinite_rank tgd.Tgd.body v then (tgd, v) :: acc
            else acc)
          (repeated_marked tgd) [])
      tgds
  in
  let all f = List.for_all f tgds in
  let classes =
    { linear = all (fun tgd -> List.length tgd.Tgd.body = 1);
      guarded =
        all (fun tgd -> guard_exists tgd ~must_cover:(Tgd.body_vars tgd));
      weakly_guarded =
        all (fun tgd ->
            guard_exists tgd
              ~must_cover:
                (Term.Var_set.filter
                   (only_at affected tgd.Tgd.body)
                   (Tgd.body_vars tgd)));
      sticky = all (fun tgd -> Term.Var_set.is_empty (repeated_marked tgd));
      weakly_sticky = violations = [];
      weakly_acyclic = Pos_set.is_empty infinite_rank;
      warded = all (warded_rule affected) }
  in
  { program;
    infinite_rank;
    affected;
    marked;
    violations;
    classes;
    egds =
      check_egds program ~allowed:(fun p -> not (Pos_set.mem p affected));
    acyclic = Program.predicate_graph_acyclic program }

let is_marked a tgd v = Term.Var_set.mem v (marked_vars a.marked tgd)

let marked_positions a =
  Pos_set.elements
    (positions_marked a.program.Program.tgds (marked_vars a.marked))

(* --- the scope of each engine ------------------------------------------ *)

let engine_name = function
  | Chase -> "chase"
  | Proof -> "proof"
  | Rewrite -> "rewrite"

let offenders v =
  let pairs =
    List.sort_uniq compare
      (List.map (fun ((e : Egd.t), var) -> (e.Egd.name, var)) v.offending)
  in
  String.concat "; "
    (List.map
       (fun name ->
         Printf.sprintf "%s equates %s at affected positions" name
           (String.concat ", "
              (List.filter_map
                 (fun (e, var) -> if e = name then Some var else None)
                 pairs)))
       (List.sort_uniq compare (List.map fst pairs)))

let scope a = function
  | Chase -> Ok ()
  | Proof when not a.classes.weakly_sticky ->
    Error "outside weakly-sticky Datalog±: no tractability guarantee"
  | Rewrite when not a.acyclic ->
    Error "cyclic predicate graph: unfolding need not terminate"
  | Proof | Rewrite ->
    if a.egds.separable then Ok ()
    else Error ("EGDs not separable: " ^ offenders a.egds)

let qa_path a =
  match (scope a Rewrite, scope a Proof) with
  | Ok (), _ -> "FO rewriting (acyclic predicate graph: unfolding terminates)"
  | _, Ok () -> "DeterministicWSQAns (weakly sticky: PTIME certain answers)"
  | _, Error why -> "budgeted chase only (" ^ why ^ ")"

(* --- printing ------------------------------------------------------------ *)

let pp_classes ppf r =
  let yn b = if b then "yes" else "no" in
  Format.fprintf ppf
    "@[<v>linear:          %s@,guarded:         %s@,weakly guarded:  \
     %s@,sticky:          %s@,weakly sticky:   %s@,weakly acyclic:  \
     %s@,warded:          %s@]"
    (yn r.linear) (yn r.guarded) (yn r.weakly_guarded) (yn r.sticky)
    (yn r.weakly_sticky) (yn r.weakly_acyclic) (yn r.warded)

let pp_separability ppf v =
  if v.separable then Format.pp_print_string ppf "separable"
  else begin
    Format.fprintf ppf "not separable:";
    List.iter
      (fun ((egd : Egd.t), var) ->
        Format.fprintf ppf "@ %s equates %s at a disallowed position"
          egd.Egd.name var)
      v.offending
  end

let pp ppf a =
  let list = function
    | [] -> "(none)"
    | ps ->
      String.concat ", "
        (List.map (fun (p, i) -> Printf.sprintf "%s[%d]" p i) ps)
  in
  let infinite = Pos_set.elements a.infinite_rank in
  Format.fprintf ppf "@[<v>%a@,@,positions: %d finite rank, %d infinite rank"
    pp_classes a.classes
    (List.length (Program.positions a.program) - List.length infinite)
    (List.length infinite);
  if infinite <> [] then
    Format.fprintf ppf "@,infinite-rank: %s" (list infinite);
  Format.fprintf ppf
    "@,affected positions: %s@,EGD separability (non-affected heads): %s@,\
     rewritable by unfolding (acyclic predicates): %b"
    (list (Pos_set.elements a.affected))
    (if a.egds.separable then "separable"
     else "not separable: " ^ offenders a.egds)
    a.acyclic;
  List.iter
    (fun e ->
      match scope a e with
      | Ok () -> Format.fprintf ppf "@,engine %s: in scope" (engine_name e)
      | Error why ->
        Format.fprintf ppf "@,engine %s: out of scope (%s)" (engine_name e) why)
    [ Chase; Proof; Rewrite ];
  Format.fprintf ppf "@,justified QA path: %s@]" (qa_path a)
