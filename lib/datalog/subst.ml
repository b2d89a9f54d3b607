type t = Term.t Term.Var_map.t

let empty = Term.Var_map.empty

let find s v = Term.Var_map.find_opt v s

let rec walk s t =
  match t with
  | Term.Const _ -> t
  | Term.Var v -> (
    match find s v with
    | Some t' when not (Term.equal t' t) -> walk s t'
    | _ -> t)

let bind s v t =
  let t = walk s t in
  match walk s (Term.Var v) with
  | Term.Var v' when String.equal v' v ->
    if Term.equal t (Term.Var v) then Some s
    else Some (Term.Var_map.add v t s)
  | existing -> if Term.equal existing t then Some s else None

let bind_exn s v t =
  match bind s v t with
  | Some s' -> s'
  | None ->
    invalid_arg (Printf.sprintf "Subst.bind_exn: conflicting binding for %s" v)

let of_list l = List.fold_left (fun s (v, t) -> bind_exn s v t) empty l

let to_list s = Term.Var_map.bindings s

let apply_term s t = walk s t

let apply_atom s a = { a with Atom.args = Array.map (walk s) a.Atom.args }

let apply_atoms s l = List.map (apply_atom s) l

let apply_cmp s (c : Atom.Cmp.t) =
  { c with Atom.Cmp.lhs = walk s c.Atom.Cmp.lhs; rhs = walk s c.Atom.Cmp.rhs }

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (v, t) -> Format.fprintf ppf "%s ↦ %a" v Term.pp t))
    (to_list s)
