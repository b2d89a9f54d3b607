module Value = Mdqa_relational.Value

type t =
  | Var of string
  | Const of Value.t

let var v = Var v
let const c = Const c
let sym s = Const (Value.sym s)
let int i = Const (Value.int i)

let is_const = function Const _ -> true | Var _ -> false

let compare a b =
  match a, b with
  | Var x, Var y -> String.compare x y
  | Const x, Const y -> Value.compare x y
  | Var _, Const _ -> -1
  | Const _, Var _ -> 1

let equal a b = compare a b = 0

let pp ppf = function
  | Var v -> Format.pp_print_string ppf v
  | Const c -> Value.pp ppf c

module Ordered = struct
  type nonrec t = t
  let compare = compare
end

module Var_set = Set.Make (String)
module Var_map = Map.Make (String)
module Set = Set.Make (Ordered)
