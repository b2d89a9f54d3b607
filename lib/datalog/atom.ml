module Tuple = Mdqa_relational.Tuple
module Value = Mdqa_relational.Value

type t = { pred : string; args : Term.t array }

let make pred args = { pred; args = Array.of_list args }
let pred a = a.pred
let args a = Array.to_list a.args
let arity a = Array.length a.args

let arg a i =
  if i < 0 || i >= Array.length a.args then
    invalid_arg
      (Printf.sprintf "Atom.arg: position %d out of range for %s/%d" i a.pred
         (Array.length a.args));
  a.args.(i)

let vars a =
  Array.fold_left
    (fun acc t ->
      match t with Term.Var v -> Term.Var_set.add v acc | Term.Const _ -> acc)
    Term.Var_set.empty a.args

let var_positions a v =
  let acc = ref [] in
  Array.iteri
    (fun i t -> if Term.equal t (Term.Var v) then acc := i :: !acc)
    a.args;
  List.rev !acc

let const_args a =
  let acc = ref [] in
  Array.iteri
    (fun i t ->
      match t with Term.Const c -> acc := (i, c) :: !acc | Term.Var _ -> ())
    a.args;
  List.rev !acc

let is_ground a = Array.for_all Term.is_const a.args

let to_tuple a =
  Tuple.unsafe_of_array
    (Array.map
       (function
         | Term.Const c -> c
         | Term.Var v ->
           invalid_arg
             (Printf.sprintf "Atom.to_tuple: %s contains variable %s" a.pred v))
       a.args)

let of_fact pred tuple =
  { pred;
    args =
      Array.init (Tuple.arity tuple) (fun i -> Term.Const (Tuple.get tuple i))
  }

let rename_vars f a =
  { a with
    args =
      Array.map
        (function Term.Var v -> Term.Var (f v) | Term.Const _ as c -> c)
        a.args }

let compare a b =
  let c = String.compare a.pred b.pred in
  if c <> 0 then c
  else
    let la = Array.length a.args and lb = Array.length b.args in
    let c = Int.compare la lb in
    if c <> 0 then c
    else
      let rec go i =
        if i >= la then 0
        else
          let c = Term.compare a.args.(i) b.args.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

let equal a b = compare a b = 0

let pp ppf a =
  Format.fprintf ppf "%s(%a)" a.pred
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Term.pp)
    (args a)

module Cmp = struct
  type op = Eq | Neq | Lt | Le | Gt | Ge

  type nonrec t = { op : op; lhs : Term.t; rhs : Term.t }

  let make op lhs rhs = { op; lhs; rhs }

  let vars c =
    let add acc = function
      | Term.Var v -> Term.Var_set.add v acc
      | Term.Const _ -> acc
    in
    add (add Term.Var_set.empty c.lhs) c.rhs

  let holds op a b =
    let c = Value.compare a b in
    match op with
    | Eq -> c = 0
    | Neq -> c <> 0
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0

  let eval c =
    match c.lhs, c.rhs with
    | Term.Const a, Term.Const b -> Some (holds c.op a b)
    | _ -> None

  let op_to_string = function
    | Eq -> "="
    | Neq -> "!="
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">="

  let pp ppf c =
    Format.fprintf ppf "%a %s %a" Term.pp c.lhs (op_to_string c.op) Term.pp
      c.rhs
end
