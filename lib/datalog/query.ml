module Tuple = Mdqa_relational.Tuple
module Value = Mdqa_relational.Value

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

(* The head compiled over the body's slot numbering ({!Eval.slot_vars}):
   a constant stays a value, a variable becomes its slot, so a match's
   image is read straight off the evaluator's slots. *)
type arg = Val of Value.t | Slot of int

let projection q =
  let vars = Eval.slot_vars q.body in
  let arg = function
    | Term.Const c -> Val c
    | Term.Var v -> Slot (Option.get (Array.find_index (String.equal v) vars))
  in
  let head = Array.of_list (List.map arg q.head) in
  fun slots ->
    Tuple.unsafe_of_array
      (Array.map (function Val c -> c | Slot s -> slots.(s)) head)

(* Every match's head image (those with a null dropped when [certain]),
   sorted and deduplicated.  A guard trip is absorbed: [Degraded]
   carries the images of the matches emitted before it. *)
let images ?guard ~certain inst q =
  let image = projection q and found = ref [] in
  let emit slots =
    let t = image slots in
    if not (certain && Tuple.has_null t) then found := t :: !found
  in
  let sorted () = List.sort_uniq Tuple.compare !found in
  match Eval.iter_matches ?guard ~cmps:q.cmps inst q.body emit with
  | () -> Guard.Complete (sorted ())
  | exception Guard.Exhausted e -> Guard.Degraded (sorted (), e)

let evaluate ?guard ~certain inst q =
  Mdqa_obs.Trace.with_span "eval" ~attrs:[ ("query", q.name) ] @@ fun () ->
  Mdqa_obs.Profile.with_query q.name @@ fun () ->
  match images ?guard ~certain inst q with
  | Guard.Complete l -> l
  | Guard.Degraded (_, e) -> raise (Guard.Exhausted e)

let matches ?guard inst q = evaluate ?guard ~certain:false inst q
let certain ?guard inst q = evaluate ?guard ~certain:true inst q

type 'a outcome =
  | Ok of 'a
  | Inconsistent of Chase.failure
  | Degraded of {
      partial : 'a;
      exhaustion : Guard.exhaustion;
      stats : Chase.stats;
    }

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
    ~eval:(fun ?guard i -> images ?guard ~certain:true i q)

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
