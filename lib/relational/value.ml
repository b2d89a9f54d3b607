type t =
  | Sym of { name : string; hash : int }
  | Int of int
  | Real of float
  | Null of int

let kind_rank = function
  | Sym _ -> 0
  | Int _ -> 1
  | Real _ -> 2
  | Null _ -> 3

let compare a b =
  match a, b with
  | Sym x, Sym y -> String.compare x.name y.name
  | Int x, Int y -> Int.compare x y
  | Real x, Real y -> Float.compare x y
  | Null x, Null y -> Int.compare x y
  | _ -> Int.compare (kind_rank a) (kind_rank b)

let equal a b =
  a == b
  ||
  match a, b with
  | Sym x, Sym y -> x.hash = y.hash && String.equal x.name y.name
  | Int x, Int y | Null x, Null y -> x = y
  | Real x, Real y -> Float.equal x y
  | _ -> false

(* A symbol's hash is cached; for the rest, the structural hash mixes
   the constructor's tag with its contents and allocates nothing; it
   folds -0.0 into 0.0 and every nan into one, as [Float.equal] does. *)
let hash = function Sym s -> s.hash | v -> Hashtbl.hash v

let is_null = function Null _ -> true | Sym _ | Int _ | Real _ -> false
let is_constant v = not (is_null v)

(* The structural hash of a one-field block of tag 0 holding the
   spelling, the shape every other kind is hashed in. *)
let sym name = Sym { name; hash = Hashtbl.hash (Some name) }
let int i = Int i
let real r = Real r
let null k = Null k

module Spellings = Hashtbl.Make (String)

let interner () =
  let table = Spellings.create 256 in
  fun name ->
    try Spellings.find table name
    with Not_found ->
      let v = sym name in
      Spellings.add table name v;
      v

let slots n =
  let rec size k = if k >= 2 * n then k else size (2 * k) in
  Array.make (size 16) (-1)

let slot slots keys v =
  let mask = Array.length slots - 1 in
  let rec go i =
    let k = slots.(i) in
    if k < 0 || equal keys.(k) v then i else go ((i + 1) land mask)
  in
  go (hash v land mask)

(* A symbol needs quoting when it could be mistaken for another lexical
   class: numbers (with [inf], [infinity] and [nan] in any case, the
   only letter-led floats: hence the test on i and n), nulls, or
   anything with spaces/punctuation. *)
let bare_symbol s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '/' | ':' | '.' ->
           true
         | _ -> false)
       s
  && ((not (String.contains "iInN" s.[0]))
      || Option.is_none (float_of_string_opt s))

let pp ppf = function
  | Sym s -> if bare_symbol s.name then Format.pp_print_string ppf s.name
             else Format.fprintf ppf "%S" s.name
  | Int i -> Format.pp_print_int ppf i
  | Real r -> Format.fprintf ppf "%g" r
  | Null n -> Format.fprintf ppf "\xe2\x8a\xa5%d" n

(* [pp] without a formatter: table cells are printed in bulk *)
let to_string = function
  | Sym { name = s; _ } ->
    if bare_symbol s then s else "\"" ^ String.escaped s ^ "\""
  | Int i -> string_of_int i
  | Real r -> Printf.sprintf "%g" r
  | Null n -> "\xe2\x8a\xa5" ^ string_of_int n

let of_string ?sym:(mk = sym) s =
  let n = String.length s in
  if n = 0 then mk ""
  else if n >= 4 && String.sub s 0 3 = "\xe2\x8a\xa5" then
    match int_of_string_opt (String.sub s 3 (n - 3)) with
    | Some k -> Null k
    | None -> mk s
  else if n >= 3 && s.[0] = '_' && s.[1] = ':' then
    match int_of_string_opt (String.sub s 2 (n - 2)) with
    | Some k -> Null k
    | None -> mk s
  else if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then
    mk (Scanf.sscanf s "%S" Fun.id)
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s with
      | Some r -> Real r
      | None -> mk s)

module Fresh = struct
  type gen = { mutable next_id : int; start : int }

  let create ?(start = 1) () = { next_id = start; start }
  let next g =
    let v = Null g.next_id in
    g.next_id <- g.next_id + 1;
    v

  let count g = g.next_id - g.start
end

module Ordered = struct
  type nonrec t = t
  let compare = compare
end

module Map = Map.Make (Ordered)
module Set = Set.Make (Ordered)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)
