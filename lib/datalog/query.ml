module Tuple = Mdqa_relational.Tuple
module Instance = Mdqa_relational.Instance

type t = {
  name : string;
  head : Term.t list;
  body : Atom.t list;
  cmps : Atom.Cmp.t list;
}

let counter = ref 0

let make ?name ?(cmps = []) ~head body =
  if body = [] then invalid_arg "Query.make: empty body";
  let bv =
    List.fold_left
      (fun acc a -> Term.Var_set.union acc (Atom.vars a))
      Term.Var_set.empty body
  in
  List.iter
    (function
      | Term.Var v when not (Term.Var_set.mem v bv) ->
        invalid_arg
          (Printf.sprintf "Query.make: head variable %s not in body" v)
      | _ -> ())
    head;
  List.iter
    (fun c ->
      Term.Var_set.iter
        (fun v ->
          if not (Term.Var_set.mem v bv) then
            invalid_arg
              (Printf.sprintf "Query.make: comparison variable %s not in body"
                 v))
        (Atom.Cmp.vars c))
    cmps;
  let name =
    match name with
    | Some n -> n
    | None ->
      incr counter;
      Printf.sprintf "q%d" !counter
  in
  { name; head; body; cmps }

let boolean ?name ?cmps body = make ?name ?cmps ~head:[] body

let is_boolean q = q.head = []

let answer_vars q =
  List.fold_left
    (fun acc t ->
      match t with
      | Term.Var v -> Term.Var_set.add v acc
      | Term.Const _ -> acc)
    Term.Var_set.empty q.head

let head_image q s =
  Tuple.of_list
    (List.map
       (fun t ->
         match Subst.walk s t with
         | Term.Const c -> c
         | Term.Var v ->
           invalid_arg
             (Printf.sprintf "Query: unbound head variable %s" v))
       q.head)

let images_of q subs =
  List.fold_left
    (fun acc s -> Tuple.Set.add (head_image q s) acc)
    Tuple.Set.empty subs

let matches ?guard inst q =
  Mdqa_obs.Trace.with_span "eval" ~attrs:[ ("query", q.name) ] @@ fun () ->
  Mdqa_obs.Profile.with_query q.name @@ fun () ->
  Tuple.Set.elements (images_of q (Eval.answers ?guard ~cmps:q.cmps inst q.body))

let certain ?guard inst q =
  List.filter (fun t -> not (Tuple.has_null t)) (matches ?guard inst q)

let holds ?guard inst q = Eval.exists ?guard ~cmps:q.cmps inst q.body

type 'a outcome =
  | Ok of 'a
  | Inconsistent of Chase.failure
  | Degraded of {
      partial : 'a;
      exhaustion : Guard.exhaustion;
      stats : Chase.stats;
    }

let value = function
  | Ok v -> Some v
  | Degraded { partial; _ } -> Some partial
  | Inconsistent _ -> None

(* Chase, then evaluate with [eval] — an evaluation that itself returns
   a (possibly degraded) outcome.  When the chase trips the guard, the
   query is still evaluated over the well-formed partial instance
   (unguarded: the instance is finite and the guard has already
   tripped), so callers always get the answers supported so far. *)
let with_chase ?guard ?chase_variant ?(goal_directed = false) program inst q
    ~eval =
  let program =
    if goal_directed then
      Program.restrict_to_goals program
        ~goals:(List.map Atom.pred q.body)
    else program
  in
  let result = Chase.run ?variant:chase_variant ?guard program inst in
  let stats = result.Chase.stats in
  let eval ?guard i =
    Mdqa_obs.Trace.with_span "eval" ~attrs:[ ("query", q.name) ] @@ fun () ->
    Mdqa_obs.Profile.with_query q.name @@ fun () -> eval ?guard i
  in
  match result.Chase.outcome with
  | Chase.Saturated -> (
    match eval ?guard result.Chase.instance with
    | Guard.Complete v -> Ok v
    | Guard.Degraded (v, e) ->
      Degraded { partial = v; exhaustion = e; stats })
  | Chase.Failed failure -> Inconsistent failure
  | Chase.Out_of_budget e ->
    let partial = Guard.value (eval ?guard:None result.Chase.instance) in
    Degraded { partial; exhaustion = e; stats }

let certain_answers ?guard ?chase_variant ?goal_directed program inst q =
  with_chase ?guard ?chase_variant ?goal_directed program inst q
    ~eval:(fun ?guard i ->
      Guard.map
        (fun subs ->
          List.filter
            (fun t -> not (Tuple.has_null t))
            (Tuple.Set.elements (images_of q subs)))
        (Eval.answers_guarded ?guard ~cmps:q.cmps i q.body))

let entails ?guard ?chase_variant ?goal_directed program inst q =
  with_chase ?guard ?chase_variant ?goal_directed program inst q
    ~eval:(fun ?guard i ->
      match Eval.exists ?guard ~cmps:q.cmps i q.body with
      | b -> Guard.Complete b
      | exception Guard.Exhausted e -> Guard.Degraded (false, e))

let pp ppf q =
  Format.fprintf ppf "%s(%a) :- %a" q.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Term.pp)
    q.head
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Atom.pp)
    q.body;
  List.iter (fun c -> Format.fprintf ppf ", %a" Atom.Cmp.pp c) q.cmps
