type t = Value.t array

let of_list = Array.of_list
let unsafe_of_array a = a
let to_list = Array.to_list
let arity = Array.length

let get t i =
  if i < 0 || i >= Array.length t then
    invalid_arg (Printf.sprintf "Tuple.get: position %d out of range" i);
  t.(i)

let set t i v =
  if i < 0 || i >= Array.length t then
    invalid_arg (Printf.sprintf "Tuple.set: position %d out of range" i);
  let t' = Array.copy t in
  t'.(i) <- v;
  t'

let project t ps = Array.of_list (List.map (get t) ps)
let append = Array.append
let exists = Array.exists
let for_all = Array.for_all
let map = Array.map
let has_null t = Array.exists Value.is_null t

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let c = Int.compare la lb in
  if c <> 0 then c
  else
    let rec go i =
      if i >= la then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let equal a b = compare a b = 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (to_list t)

module Ordered = struct
  type nonrec t = t
  let compare = compare
end

module Set = Set.Make (Ordered)
module Map = Map.Make (Ordered)
