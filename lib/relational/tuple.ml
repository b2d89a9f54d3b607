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
let map = Array.map
let has_null t = Array.exists Value.is_null t

(* Arity first, then [Value.compare] position by position.  The loops
   are top-level functions, so a comparison allocates no closure; a
   position holding one value in both tuples is skipped, and symbols,
   the common case, are compared inline. *)
let rec compare_from (a : t) (b : t) i =
  if i = Array.length a then 0
  else
    let c =
      match Array.unsafe_get a i, Array.unsafe_get b i with
      | x, y when x == y -> 0
      | Value.Sym s, Value.Sym s' -> String.compare s.name s'.name
      | x, y -> Value.compare x y
    in
    if c <> 0 then c else compare_from a b (i + 1)

let compare a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c else compare_from a b 0

let rec equal_from (a : t) (b : t) i =
  i = Array.length a
  || (Value.equal (Array.unsafe_get a i) (Array.unsafe_get b i)
      && equal_from a b (i + 1))

let equal a b = Array.length a = Array.length b && equal_from a b 0

let hash t =
  let h = ref 17 in
  for i = 0 to Array.length t - 1 do
    h := (!h * 31) + Value.hash (Array.unsafe_get t i)
  done;
  !h

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

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)
