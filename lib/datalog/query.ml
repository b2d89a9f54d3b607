module Tuple = Mdqa_relational.Tuple
module Value = Mdqa_relational.Value
module Profile = Mdqa_obs.Profile

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

(* Every match's head image (null-free ones only with [certain]), sorted
   and deduplicated.  Duplicates are also dropped whenever the list has
   doubled, so memory follows the distinct images, not the matches. *)
let images ?guard ~certain inst q =
  Mdqa_obs.Trace.with_span "eval" ~attrs:[ ("query", q.name) ] @@ fun () ->
  (* the body atoms' statistics are attributed to the query *)
  (match Profile.installed () with
   | Some p -> Profile.with_scope p q.name
   | None -> fun f -> f ())
  @@ fun () ->
  let image = projection q and found = ref [] and held = ref 0 in
  let sorted () = List.sort_uniq Tuple.compare !found in
  let dedup_at = ref 4096 in
  let emit slots =
    let t = image slots in
    if not (certain && Tuple.has_null t) then begin
      found := t :: !found;
      incr held;
      if !held >= !dedup_at then begin
        found := sorted ();
        held := List.length !found;
        dedup_at := max 4096 (2 * !held)
      end
    end
  in
  match Eval.iter_matches ?guard ~cmps:q.cmps inst q.body emit with
  | () -> Guard.Complete (sorted ())
  | exception Guard.Exhausted e -> Guard.Degraded (sorted (), e)

let evaluate ?guard inst q = images ?guard ~certain:true inst q

let raise_degraded = function
  | Guard.Complete l -> l
  | Guard.Degraded (_, e) -> raise (Guard.Exhausted e)

let matches ?guard inst q =
  raise_degraded (images ?guard ~certain:false inst q)

let certain ?guard inst q = raise_degraded (evaluate ?guard inst q)

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
