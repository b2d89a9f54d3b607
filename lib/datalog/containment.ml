module Instance = Mdqa_relational.Instance
module Tuple = Mdqa_relational.Tuple
module Value = Mdqa_relational.Value

(* Freeze a query: substitute each variable by a private constant that
   cannot occur in any real query (the prefix is non-printable). *)
let freeze_term = function
  | Term.Var v -> Term.Const (Value.sym ("\000fz:" ^ v))
  | Term.Const _ as t -> t

let freeze_atom a = Atom.make (Atom.pred a) (List.map freeze_term (Atom.args a))

let frozen_instance (q : Query.t) =
  let inst = Instance.create () in
  List.iter
    (fun a ->
      let fa = freeze_atom a in
      let schema = Program.schema (Atom.pred fa) (Atom.arity fa) in
      ignore (Instance.declare inst schema);
      ignore (Instance.add_tuple inst (Atom.pred fa) (Atom.to_tuple fa)))
    q.Query.body;
  inst

let frozen_head (q : Query.t) = List.map freeze_term q.Query.head

let is_frozen = function
  | Term.Const (Value.Sym { name = s; _ }) ->
    String.length s >= 4 && String.sub s 0 4 = "\000fz:"
  | _ -> false

(* A comparison of [super], instantiated by the homomorphism, must be
   trivially true on real constants, or literally among [sub]'s frozen
   comparisons.  A frozen constant stands for an arbitrary value, so a
   comparison touching one is never evaluated. *)
let cmp_implied sub_cmps_frozen (c : Atom.Cmp.t) =
  let literal () =
    List.exists
      (fun (c' : Atom.Cmp.t) ->
        c.Atom.Cmp.op = c'.Atom.Cmp.op
        && Term.equal c.Atom.Cmp.lhs c'.Atom.Cmp.lhs
        && Term.equal c.Atom.Cmp.rhs c'.Atom.Cmp.rhs)
      sub_cmps_frozen
  in
  if is_frozen c.Atom.Cmp.lhs || is_frozen c.Atom.Cmp.rhs then literal ()
  else
    match Atom.Cmp.eval c with
    | Some b -> b
    | None -> literal ()

let contained ~(sub : Query.t) ~(super : Query.t) =
  List.length sub.Query.head = List.length super.Query.head
  && begin
    let inst = frozen_instance sub in
    let target_head = frozen_head sub in
    let sub_cmps_frozen =
      List.map
        (fun (c : Atom.Cmp.t) ->
          Atom.Cmp.make c.Atom.Cmp.op (freeze_term c.Atom.Cmp.lhs)
            (freeze_term c.Atom.Cmp.rhs))
        sub.Query.cmps
    in
    let found = ref false in
    let check s =
      if not !found then begin
        let head_ok =
          List.for_all2
            (fun h target -> Term.equal (Subst.walk s h) target)
            super.Query.head target_head
        in
        let cmps_ok =
          List.for_all
            (fun c -> cmp_implied sub_cmps_frozen (Subst.apply_cmp s c))
            super.Query.cmps
        in
        if head_ok && cmps_ok then found := true
      end
    in
    List.iter check (Eval.answers inst super.Query.body);
    !found
  end

let equivalent a b = contained ~sub:a ~super:b && contained ~sub:b ~super:a

let minimize (q : Query.t) =
  let safe body =
    body <> []
    && begin
      let bv =
        List.fold_left
          (fun acc a -> Term.Var_set.union acc (Atom.vars a))
          Term.Var_set.empty body
      in
      Term.Var_set.subset (Query.answer_vars q) bv
      && List.for_all
           (fun c -> Term.Var_set.subset (Atom.Cmp.vars c) bv)
           q.Query.cmps
    end
  in
  let rec shrink body =
    let try_drop i =
      let body' = List.filteri (fun j _ -> j <> i) body in
      if not (safe body') then None
      else
        let q' =
          Query.make ~name:q.Query.name ~cmps:q.Query.cmps ~head:q.Query.head
            body'
        in
        (* dropping atoms only widens the query, so equivalence reduces
           to q' ⊆ q *)
        if contained ~sub:q' ~super:q then Some body' else None
    in
    let rec first_drop i =
      if i >= List.length body then None
      else match try_drop i with Some b -> Some b | None -> first_drop (i + 1)
    in
    match first_drop 0 with Some b -> shrink b | None -> body
  in
  let body = shrink q.Query.body in
  if List.length body = List.length q.Query.body then q
  else Query.make ~name:q.Query.name ~cmps:q.Query.cmps ~head:q.Query.head body

(* A disjunct can contain another only when each of its body
   predicates occurs in the other one: [Eval] finds no match over an
   absent predicate.  Each disjunct is listed under its first body
   predicate, so those that may contain [i] are found from [i]'s own
   predicates, and tried in the order of the all-pairs loop. *)
let prune_ucq disjuncts =
  let arr = Array.of_list disjuncts in
  let n = Array.length arr in
  let preds =
    Array.map
      (fun (q : Query.t) ->
        List.sort_uniq String.compare (List.map Atom.pred q.Query.body))
      arr
  in
  let under = Hashtbl.create n in
  Array.iteri (fun j ps -> Hashtbl.add under (List.hd ps) j) preds;
  let candidates i =
    List.concat_map (Hashtbl.find_all under) preds.(i)
    |> List.filter (fun j ->
           j <> i && List.for_all (fun p -> List.mem p preds.(i)) preds.(j))
    |> List.sort Int.compare
  in
  let dropped = Array.make n false in
  for i = 0 to n - 1 do
    if not dropped.(i) then
      List.iter
        (fun j ->
          if (not dropped.(i)) && not dropped.(j) then
            if contained ~sub:arr.(i) ~super:arr.(j) then
              if contained ~sub:arr.(j) ~super:arr.(i) then begin
                (* equivalent: keep the earlier one *)
                if j < i then dropped.(i) <- true else dropped.(j) <- true
              end
              else dropped.(i) <- true)
        (candidates i)
  done;
  List.filteri (fun i _ -> not dropped.(i)) (Array.to_list arr)
