type t = {
  name : string;
  body : Atom.t list;
  lhs : Term.t;
  rhs : Term.t;
}

let counter = ref 0

let body_vars_of body =
  List.fold_left
    (fun acc a -> Term.Var_set.union acc (Atom.vars a))
    Term.Var_set.empty body

let make ?name ~body lhs rhs =
  if body = [] then invalid_arg "Egd.make: empty body";
  let bv = body_vars_of body in
  let check = function
    | Term.Var v when not (Term.Var_set.mem v bv) ->
      invalid_arg
        (Printf.sprintf "Egd.make: head variable %s not in body" v)
    | _ -> ()
  in
  check lhs;
  check rhs;
  let name =
    match name with
    | Some n -> n
    | None ->
      incr counter;
      Printf.sprintf "egd%d" !counter
  in
  { name; body; lhs; rhs }


let equated_vars t =
  let add acc = function
    | Term.Var v -> Term.Var_set.add v acc
    | Term.Const _ -> acc
  in
  add (add Term.Var_set.empty t.lhs) t.rhs

let pp ppf t =
  Format.fprintf ppf "%a = %a :- %a" Term.pp t.lhs Term.pp t.rhs
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Atom.pp)
    t.body
