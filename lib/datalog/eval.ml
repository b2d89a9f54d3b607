module Instance = Mdqa_relational.Instance
module Relation = Mdqa_relational.Relation
module Tuple = Mdqa_relational.Tuple
module Value = Mdqa_relational.Value

(* A body atom with its semi-naive role: a tuple filter ([keep]), the
   explicit delta list when the atom is the delta atom of a semi-naive
   partition, and the estimated number of tuples [keep] accepts out of
   a relation of the given cardinality. *)
type tagged = {
  atom : Atom.t;
  keep : Tuple.t -> bool;
  delta : Tuple.t list option;
  kept : int -> int;
}

(* Where a step reads a value from: a constant of the body, or the
   slot of a variable bound by an earlier step (or earlier position of
   the same atom). *)
type source = Val of Value.t | Slot of int

type access =
  | Scan  (* every tuple of the relation *)
  | Delta of Tuple.t list  (* the semi-naive delta list *)
  | Probe of (Tuple.t -> Tuple.t list) * source array * Value.t array
      (* exact composite key over every bound position: the index
         lookup, the key's sources and the buffer visits fill them in *)

(* One step of a compiled plan.  For each candidate tuple of [access],
   a step applies [keep], stores the variables it binds first, then
   checks the positions [access] does not enforce (repeated variables;
   every bound position under [Delta]) and the comparisons that become
   ground here. *)
type step = {
  idx : int;  (* source position in the body: the stable atom id *)
  pred : string;
  rel : Relation.t;
  access : access;
  label : string;  (* "scan", "delta" or "key=(0,2)", for the profiler *)
  keep : Tuple.t -> bool;
  binds : (int * int) list;  (* tuple position -> variable slot *)
  checks : (int * source) list;
  cmps : (Atom.Cmp.op * source * source) list;
  mutable scanned : int;  (* the current visit's counts, for the profiler *)
  mutable matched : int;
}

type plan = { vars : string array; steps : step array }

(* Bodies up to this many atoms are ordered by the exact subset DP;
   longer ones (homomorphism checks over whole instances) greedily by
   the same estimates. *)
let dp_limit = 8

(* Number the variables of the body by first occurrence, after the
   pre-bound ones. *)
let slot_table ?(bound = [||]) atoms =
  let tbl = Hashtbl.create 16 and names = ref [] in
  Array.iteri
    (fun i v ->
      Hashtbl.add tbl v i;
      names := v :: !names)
    bound;
  List.iter
    (fun (tg : tagged) ->
      List.iter
        (function
          | Term.Var v when not (Hashtbl.mem tbl v) ->
            Hashtbl.add tbl v (Hashtbl.length tbl);
            names := v :: !names
          | _ -> ())
        (Atom.args tg.atom))
    atoms;
  (tbl, Array.of_list (List.rev !names))

let source_of slots = function
  | Term.Const c -> Val c
  | Term.Var v -> Slot (Hashtbl.find slots v)

(* Left-deep join order minimising the summed estimated tuples walked
   per step, by DP over atom subsets.  [estimate i bound] is the
   (walked, passed-on) estimate per incoming substitution of atom [i]
   when the variable slots satisfying [bound] are bound.  Ties keep the
   order found first, which favours source order. *)
let order_dp n occ estimate =
  let full = (1 lsl n) - 1 in
  let cost = Array.make (full + 1) infinity
  and size = Array.make (full + 1) 0.
  and order = Array.make (full + 1) [] in
  cost.(0) <- 0.;
  size.(0) <- 1.;
  for mask = 0 to full - 1 do
    if cost.(mask) < infinity then
      for i = 0 to n - 1 do
        if mask land (1 lsl i) = 0 then begin
          let walked, out =
            estimate i (fun s -> occ.(s) land mask <> 0)
          in
          let c = cost.(mask) +. (size.(mask) *. walked)
          and m = mask lor (1 lsl i) in
          if c < cost.(m) then begin
            cost.(m) <- c;
            size.(m) <- size.(mask) *. out;
            order.(m) <- i :: order.(mask)
          end
        end
      done
  done;
  List.rev order.(full)

let order_greedy n nslots args estimate =
  let placed = Array.make n false and bound = Array.make nslots false in
  List.init n (fun _ ->
      let best = ref (-1) and best_est = ref (infinity, infinity) in
      for i = 0 to n - 1 do
        if not placed.(i) then begin
          let e = estimate i (fun s -> bound.(s)) in
          if e < !best_est then begin
            best := i;
            best_est := e
          end
        end
      done;
      placed.(!best) <- true;
      Array.iter (function Slot s -> bound.(s) <- true | Val _ -> ())
        args.(!best);
      !best)

let key_label key =
  "key=(" ^ String.concat "," (List.map (fun (p, _) -> string_of_int p) key)
  ^ ")"

(* The per-step estimator of a body: [estimate i bound] is the
   (walked, passed-on) tuple count per incoming substitution of atom
   [i] when the variable slots satisfying [bound] are bound.  System R
   style: a bound position keeps 1/distinct of the relation, positions
   independently; a repeated fresh variable filters likewise; [keep]
   passes [kept card] of the [card] tuples.  The delta atom walks its
   list while none of its variables is bound. *)
let estimator rels (atoms : tagged array) args =
  let card = Array.map (fun r -> float_of_int (Relation.cardinal r)) rels in
  let sel =
    Array.map
      (fun r ->
        Array.init (Relation.arity r) (fun p ->
            1. /. float_of_int (Relation.distinct r p)))
      rels
  and kept =
    Array.mapi (fun i tg -> float_of_int (tg.kept (Relation.cardinal rels.(i)))) atoms
  in
  fun i bound ->
    let bucket = ref card.(i) and filter = ref (kept.(i) /. card.(i))
    and any_var = ref false and fresh = ref [] in
    Array.iteri
      (fun p src ->
        match src with
        | Val _ -> bucket := !bucket *. sel.(i).(p)
        | Slot s when bound s ->
          any_var := true;
          bucket := !bucket *. sel.(i).(p)
        | Slot s when List.mem s !fresh -> filter := !filter *. sel.(i).(p)
        | Slot s -> fresh := s :: !fresh)
      args.(i);
    let walked =
      if Option.is_some atoms.(i).delta && not !any_var then kept.(i)
      else !bucket
    in
    (walked, !bucket *. !filter)

(* Compile a body into a plan, or [None] when it has no match whatever
   the bindings: a predicate absent, empty or of another arity, a
   ground comparison that fails, or a comparison over a variable the
   body never binds.  The variables of [bound] take the first slots and
   are bound before the first step. *)
let plan ?(bound = [||]) inst (atoms : tagged list) cmps =
  let atoms = Array.of_list atoms in
  let n = Array.length atoms and pre = Array.length bound in
  let rels =
    Array.map
      (fun tg ->
        match Instance.find inst (Atom.pred tg.atom) with
        | Some r
          when (not (Relation.is_empty r))
               && Relation.arity r = Atom.arity tg.atom ->
          Some r
        | _ -> None)
      atoms
  in
  let slots, vars = slot_table ~bound (Array.to_list atoms) in
  let known = function
    | Term.Var v -> Hashtbl.mem slots v
    | Term.Const _ -> true
  in
  let compile_cmp (c : Atom.Cmp.t) =
    match (c.lhs, c.rhs) with
    | l, r when not (known l && known r) -> None
    | Term.Const a, Term.Const b ->
      if Atom.Cmp.holds c.op a b then Some [] else None
    | l, r -> Some [ (c.op, source_of slots l, source_of slots r) ]
  in
  let cmps = List.map compile_cmp cmps in
  if Array.exists Option.is_none rels || List.exists Option.is_none cmps then
    None
  else
    let rels = Array.map Option.get rels
    and cmps = List.concat_map Option.get cmps
    and args =
      Array.map
        (fun tg ->
          Array.of_list (List.map (source_of slots) (Atom.args tg.atom)))
        atoms
    in
    let order =
      if n <= 1 then List.init n Fun.id
      else
        let est = estimator rels atoms args in
        let estimate i bound = est i (fun s -> s < pre || bound s) in
        if n <= dp_limit then begin
          let occ = Array.make (Array.length vars) 0 in
          Array.iteri
            (fun i ->
              Array.iter (function
                | Slot s -> occ.(s) <- occ.(s) lor (1 lsl i)
                | Val _ -> ()))
            args;
          order_dp n occ estimate
        end
        else order_greedy n (Array.length vars) args estimate
    in
    let bound = Array.init (Array.length vars) (fun s -> s < pre)
    and pending = ref cmps in
    let ground = function Val _ -> true | Slot s -> bound.(s) in
    let step i =
      let tg = atoms.(i) in
      let key = ref [] and binds = ref [] and checks = ref [] in
      Array.iteri
        (fun p src ->
          match src with
          | Slot s when not bound.(s) ->
            if List.exists (fun (_, s') -> s' = s) !binds then
              checks := (p, src) :: !checks
            else binds := (p, s) :: !binds
          | _ -> key := (p, src) :: !key)
        args.(i);
      let key = List.rev !key and checks = List.rev !checks in
      let access, label, checks =
        match tg.delta with
        | Some l
          when List.for_all (function _, Val _ -> true | _ -> false) key ->
          (Delta l, "delta", key @ checks)
        | _ when key = [] -> (Scan, "scan", checks)
        | _ ->
          let srcs = Array.of_list (List.map snd key) in
          ( Probe
              ( Relation.index rels.(i) (List.map fst key),
                srcs,
                Array.make (Array.length srcs) (Value.int 0) ),
            key_label key, checks )
      in
      List.iter (fun (_, s) -> bound.(s) <- true) !binds;
      let ready, rest =
        List.partition (fun (_, l, r) -> ground l && ground r) !pending
      in
      pending := rest;
      { idx = i; pred = Atom.pred tg.atom; rel = rels.(i); access; label;
        keep = tg.keep; binds = List.rev !binds; checks; cmps = ready;
        scanned = 0; matched = 0 }
    in
    let steps = Array.of_list (List.map step order) in
    (* every comparison mentions only body variables, all bound by the
       last step *)
    assert (!pending = []);
    Some { vars; steps }

let value slots = function Val v -> v | Slot s -> slots.(s)

let rec bind slots t = function
  | [] -> ()
  | (p, s) :: rest ->
    slots.(s) <- Tuple.get t p;
    bind slots t rest

let rec agree slots t = function
  | [] -> true
  | (p, src) :: rest ->
    Value.equal (Tuple.get t p) (value slots src) && agree slots t rest

let rec holds slots = function
  | [] -> true
  | (op, l, r) :: rest ->
    Atom.Cmp.holds op (value slots l) (value slots r) && holds slots rest

(* Run a plan over [slots] (the pre-bound ones already set): a
   backtracking loop over the steps that hands [emit] the slots of each
   complete match.  With a guard, every emitted match consumes a row
   and every candidate tuple ticks the cooperative deadline / memory /
   cancellation check, so a join explosion trips the guard instead of
   exhausting time or memory.  A visit allocates nothing but its
   closure over a scanned relation. *)
let execute ?guard { steps; _ } slots ~emit =
  let tick, count_row =
    match guard with
    | Some g -> ((fun () -> Guard.tick g), fun () -> Guard.count_row g)
    | None -> (ignore, ignore)
  in
  (* With an attribution scope open (chase rule body or named query),
     every visit of a step is credited to its atom. *)
  let prof = Mdqa_obs.Profile.scoped () in
  let n = Array.length steps in
  let cells = Array.make (if Option.is_none prof then 0 else n) None in
  let rec go k =
    if k = n then begin
      count_row ();
      emit slots
    end
    else begin
      let st = steps.(k) in
      st.scanned <- 0;
      st.matched <- 0;
      (match st.access with
       | Scan -> Relation.iter (visit k st) st.rel
       | Delta l -> walk k st l
       | Probe (h, srcs, key) ->
         for i = 0 to Array.length srcs - 1 do
           key.(i) <- value slots srcs.(i)
         done;
         walk k st (h (Tuple.unsafe_of_array key)));
      match prof with
      | None -> ()
      | Some p ->
        if Option.is_none cells.(k) then
          cells.(k) <-
            Mdqa_obs.Profile.atom_cell p ~idx:st.idx ~pred:st.pred ~step:k
              ~key:st.label;
        Option.iter
          (Mdqa_obs.Profile.count_visit ~scanned:st.scanned ~matched:st.matched)
          cells.(k)
    end
  (* a step's counters are its own: deeper steps never reenter it *)
  and visit k st t =
    tick ();
    st.scanned <- st.scanned + 1;
    if st.keep t then begin
      bind slots t st.binds;
      if agree slots t st.checks && holds slots st.cmps then begin
        st.matched <- st.matched + 1;
        go (k + 1)
      end
    end
  and walk k st = function
    | [] -> ()
    | t :: rest ->
      visit k st t;
      walk k st rest
  in
  go 0

let plain a = { atom = a; keep = (fun _ -> true); delta = None; kept = Fun.id }

let slot_vars atoms = snd (slot_table (List.map plain atoms))

let new_slots p = Array.make (Array.length p.vars) (Value.int 0)

(* Semi-naive enumeration: exactly the matches using at least one
   delta fact, partitioned so no match is produced twice: for each atom
   index i, atom i matches delta facts only, atoms before i old facts
   only, atoms after i are unrestricted.  Each partition is planned on
   its own; one whose delta atom has no delta facts has no matches and
   is skipped.  Every partition numbers the slots alike. *)
let search ?guard ?(cmps = []) ?delta inst atoms emit =
  let search tagged =
    Option.iter
      (fun p -> execute ?guard p (new_slots p) ~emit:(emit p.vars))
      (plan inst tagged cmps)
  in
  match delta with
  | None -> search (List.map plain atoms)
  | Some delta ->
    let lists = Hashtbl.create 8 in
    let delta_of pred =
      try Hashtbl.find lists pred
      with Not_found ->
        let l = delta pred in
        let d = (List.length l, l, Tuple.Set.of_list l) in
        Hashtbl.add lists pred d;
        d
    in
    List.iteri
      (fun i a_i ->
        let len, l, _ = delta_of (Atom.pred a_i) in
        if len > 0 then
          search
            (List.mapi
               (fun j a ->
                 let n, _, set = delta_of (Atom.pred a) in
                 if j = i then
                   { atom = a; keep = (fun t -> Tuple.Set.mem t set);
                     delta = Some l; kept = Fun.const len }
                 else if j < i then
                   { atom = a; keep = (fun t -> not (Tuple.Set.mem t set));
                     delta = None; kept = (fun card -> max 0 (card - n)) }
                 else plain a)
               atoms))
      atoms

let iter_matches ?guard ?cmps ?delta inst atoms emit =
  search ?guard ?cmps ?delta inst atoms (fun _ slots -> emit slots)

let subst_of vars slots =
  Subst.of_list
    (Array.to_list (Array.mapi (fun s v -> (v, Term.Const slots.(s))) vars))

let answers ?guard ?cmps inst atoms =
  let out = ref [] in
  search ?guard ?cmps inst atoms (fun vars s -> out := subst_of vars s :: !out);
  List.rev !out

exception Found of Subst.t

let first ?guard ?cmps inst atoms =
  match
    search ?guard ?cmps inst atoms (fun vars s ->
        raise (Found (subst_of vars s)))
  with
  | () -> None
  | exception Found s -> Some s

let exists ?guard ?cmps inst atoms =
  match iter_matches ?guard ?cmps inst atoms (fun _ -> raise Exit) with
  | () -> false
  | exception Exit -> true

let holds_fact inst a =
  if not (Atom.is_ground a) then
    invalid_arg "Eval.holds_fact: atom is not ground";
  match Instance.find inst (Atom.pred a) with
  | None -> false
  | Some r -> Relation.mem r (Atom.to_tuple a)

(* Planned on the first probe at which every relation is non-empty
   (before that nothing can match), then reused. *)
let prober ?guard inst ~bound atoms =
  let compiled = ref None in
  fun values ->
    if Option.is_none !compiled then
      compiled :=
        Option.map
          (fun p -> (p, new_slots p))
          (plan ~bound inst (List.map plain atoms) []);
    match !compiled with
    | None -> false
    | Some (p, slots) -> (
      Array.blit values 0 slots 0 (Array.length bound);
      match execute ?guard p slots ~emit:(fun _ -> raise Exit) with
      | () -> false
      | exception Exit -> true)
