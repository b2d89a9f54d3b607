type t = {
  name : string;
  body : Atom.t list;
  head : Atom.t list;
}

let vars_of_atoms atoms =
  List.fold_left
    (fun acc a -> Term.Var_set.union acc (Atom.vars a))
    Term.Var_set.empty atoms

let make ~name ~body ~head () =
  if body = [] then invalid_arg "Tgd.make: empty body";
  if head = [] then invalid_arg "Tgd.make: empty head";
  { name; body; head }

let body_vars t = vars_of_atoms t.body
let head_vars t = vars_of_atoms t.head

let existential_vars t = Term.Var_set.diff (head_vars t) (body_vars t)
let frontier t = Term.Var_set.inter (head_vars t) (body_vars t)

let repeated_body_vars t =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun a ->
      List.iter
        (function
          | Term.Var v ->
            Hashtbl.replace counts v
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
          | Term.Const _ -> ())
        (Atom.args a))
    t.body;
  Hashtbl.fold
    (fun v n acc -> if n >= 2 then Term.Var_set.add v acc else acc)
    counts Term.Var_set.empty

let rename ~suffix t =
  { t with
    body = Unify.rename_apart ~suffix t.body;
    head = Unify.rename_apart ~suffix t.head }

let head_preds t = List.map Atom.pred t.head
let body_preds t = List.map Atom.pred t.body

let pp_atoms ppf atoms =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    Atom.pp ppf atoms

let pp ppf t =
  let ex = existential_vars t in
  if Term.Var_set.is_empty ex then
    Format.fprintf ppf "%a :- %a" pp_atoms t.head pp_atoms t.body
  else
    Format.fprintf ppf "exists %s. %a :- %a"
      (String.concat ", " (Term.Var_set.elements ex))
      pp_atoms t.head pp_atoms t.body
