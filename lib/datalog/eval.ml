module Instance = Mdqa_relational.Instance
module Relation = Mdqa_relational.Relation
module Tuple = Mdqa_relational.Tuple

(* Positions of an atom whose argument is ground under [s], paired with
   the value, in {!Relation.scan} binding format. *)
let bound_positions s (a : Atom.t) =
  let acc = ref [] in
  List.iteri
    (fun i t ->
      match Subst.walk s t with
      | Term.Const c -> acc := (i, c) :: !acc
      | Term.Var _ -> ())
    (Atom.args a);
  List.rev !acc

(* A body atom tagged with its evaluation constraints: an optional
   explicit candidate list with its length (the semi-naive delta), and
   a tuple filter.  The candidate list is an upper bound: evaluation
   may instead use an indexed scan when the current bindings are more
   selective (the [keep] filter preserves the delta restriction). *)
type tagged = {
  t_atom : Atom.t;
  t_idx : int;  (* source position in the rule body: the stable atom id *)
  keep : Tuple.t -> bool;
  candidates : (int * Tuple.t list) option;  (* None: scan the relation *)
}

(* Greedy selectivity score: the estimated number of candidate tuples
   the atom would enumerate right now — the smaller of the explicit
   (delta) candidate list and the index-bucket estimate of the bound
   positions.  Ties broken towards more bound positions. *)
let score inst s tg =
  let bound = bound_positions s tg.t_atom in
  let scan_est =
    match Instance.find inst (Atom.pred tg.t_atom) with
    | Some r -> Relation.scan_estimate r bound
    | None -> 0
  in
  let estimate =
    match tg.candidates with
    | Some (len, _) -> min len scan_est
    | None -> scan_est
  in
  (estimate, -List.length bound)

let pick_next inst s atoms =
  let rec go best best_score rest = function
    | [] -> (best, List.rev rest)
    | x :: xs ->
      let sc = score inst s x in
      if sc < best_score then go x sc (best :: rest) xs
      else go best best_score (x :: rest) xs
  in
  match atoms with
  | [] -> invalid_arg "Eval.pick_next: empty"
  | x :: xs -> go x (score inst s x) [] xs

(* Comparisons whose two sides are ground under [s] must hold; the rest
   are kept pending. *)
let check_cmps s cmps =
  let rec go pending = function
    | [] -> Some (List.rev pending)
    | c :: rest -> (
      match Atom.Cmp.eval (Subst.apply_cmp s c) with
      | Some true -> go pending rest
      | Some false -> None
      | None -> go (c :: pending) rest)
  in
  go [] cmps

(* Backtracking join over atoms tagged with a per-atom tuple filter.
   [emit] is called on every complete match; a safe body grounds every
   comparison by the end.  With a guard, every emitted match consumes a
   row and every candidate tuple ticks the cooperative deadline /
   memory / cancellation check, so a join explosion trips the guard
   instead of exhausting time or memory. *)
let search ?guard ?(cmps = []) inst tagged_atoms ~emit =
  let tick, count_row =
    match guard with
    | Some g -> ((fun () -> Guard.tick g), fun () -> Guard.count_row g)
    | None -> (ignore, ignore)
  in
  let rec go s atoms cmps =
    match check_cmps s cmps with
    | None -> ()
    | Some pending -> (
      match atoms with
      | [] ->
        if pending = [] then begin
          count_row ();
          emit s
        end
      | _ -> (
        let tg, rest = pick_next inst s atoms in
        let atom = tg.t_atom in
        match Instance.find inst (Atom.pred atom) with
        | None -> ()
        | Some r ->
          let pattern = Subst.apply_atom s atom in
          let bound = bound_positions s atom in
          let candidates =
            match tg.candidates with
            | Some (len, l) ->
              if Relation.scan_estimate r bound < len then
                Relation.scan r bound
              else l
            | None -> Relation.scan r bound
          in
          let rec loop matched = function
            | [] -> matched
            | tuple :: tl ->
              tick ();
              let matched =
                if not (tg.keep tuple) then matched
                else
                  match
                    Unify.match_against ~init:s ~pattern
                      (Atom.of_fact (Atom.pred atom) tuple)
                  with
                  | Some s' ->
                    go s' rest pending;
                    matched + 1
                  | None -> matched
              in
              loop matched tl
          in
          let matched = loop 0 candidates in
          (* With an attribution scope open (chase rule body or named
             query), this visit is credited to the atom. *)
          match Mdqa_obs.Profile.scoped () with
          | None -> ()
          | Some p ->
            Mdqa_obs.Profile.atom_visit p ~idx:tg.t_idx ~pred:(Atom.pred atom)
              ~scanned:(List.length candidates) ~matched))
  in
  go Subst.empty tagged_atoms cmps

let no_filter _ = true

let plain i a = { t_atom = a; t_idx = i; keep = no_filter; candidates = None }

let answers ?guard ?cmps inst atoms =
  let out = ref [] in
  search ?guard ?cmps inst (List.mapi plain atoms)
    ~emit:(fun s -> out := s :: !out);
  List.rev !out

let answers_guarded ?guard ?cmps inst atoms =
  let out = ref [] in
  match
    search ?guard ?cmps inst (List.mapi plain atoms)
      ~emit:(fun s -> out := s :: !out)
  with
  | () -> Guard.Complete (List.rev !out)
  | exception Guard.Exhausted e -> Guard.Degraded (List.rev !out, e)

exception Found of Subst.t

let first ?guard ?cmps inst atoms =
  try
    search ?guard ?cmps inst (List.mapi plain atoms)
      ~emit:(fun s -> raise (Found s));
    None
  with Found s -> Some s

let exists ?guard ?cmps inst atoms =
  Option.is_some (first ?guard ?cmps inst atoms)

let holds_fact inst a =
  if not (Atom.is_ground a) then
    invalid_arg "Eval.holds_fact: atom is not ground";
  match Instance.find inst (Atom.pred a) with
  | None -> false
  | Some r -> Relation.mem r (Atom.to_tuple a)

(* Semi-naive enumeration: exactly the matches using at least one
   delta fact, partitioned so no match is produced twice: for each atom
   index i, atom i matches delta facts only, atoms before i old facts
   only, atoms after i are unrestricted.  A partition whose delta atom
   has no delta tuples has no matches and is skipped. *)
let delta_answers ?guard ?cmps inst ~delta ?delta_tuples atoms =
  let out = ref [] in
  List.iteri
    (fun i a_i ->
      let candidates =
        Option.map
          (fun f ->
            let l = f (Atom.pred a_i) in
            (List.length l, l))
          delta_tuples
      in
      match candidates with
      | Some (0, _) -> ()
      | _ ->
        let tagged =
          List.mapi
            (fun j a ->
              if j = i then
                { t_atom = a;
                  t_idx = j;
                  keep = (fun tuple -> delta (Atom.pred a) tuple);
                  candidates }
              else if j < i then
                { t_atom = a;
                  t_idx = j;
                  keep = (fun tuple -> not (delta (Atom.pred a) tuple));
                  candidates = None }
              else plain j a)
            atoms
        in
        search ?guard ?cmps inst tagged ~emit:(fun s -> out := s :: !out))
    atoms;
  List.rev !out
