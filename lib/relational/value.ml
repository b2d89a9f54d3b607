type t =
  | Sym of string
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
  | Sym x, Sym y -> String.compare x y
  | Int x, Int y -> Int.compare x y
  | Real x, Real y -> Float.compare x y
  | Null x, Null y -> Int.compare x y
  | _ -> Int.compare (kind_rank a) (kind_rank b)

let equal a b =
  a == b
  ||
  match a, b with
  | Sym x, Sym y -> String.equal x y
  | Int x, Int y | Null x, Null y -> x = y
  | Real x, Real y -> Float.equal x y
  | _ -> false

(* The structural hash mixes the constructor's tag with its contents
   and allocates nothing; it folds -0.0 into 0.0 and every nan into
   one, as [Float.equal] does. *)
let hash (v : t) = Hashtbl.hash v

let is_null = function Null _ -> true | Sym _ | Int _ | Real _ -> false
let is_constant v = not (is_null v)

let sym s = Sym s
let int i = Int i
let real r = Real r

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
  | Sym s -> if bare_symbol s then Format.pp_print_string ppf s
             else Format.fprintf ppf "%S" s
  | Int i -> Format.pp_print_int ppf i
  | Real r -> Format.fprintf ppf "%g" r
  | Null n -> Format.fprintf ppf "\xe2\x8a\xa5%d" n

(* [pp] without a formatter: table cells are printed in bulk *)
let to_string = function
  | Sym s -> if bare_symbol s then s else "\"" ^ String.escaped s ^ "\""
  | Int i -> string_of_int i
  | Real r -> Printf.sprintf "%g" r
  | Null n -> "\xe2\x8a\xa5" ^ string_of_int n

let of_string s =
  let n = String.length s in
  if n = 0 then Sym ""
  else if n >= 4 && String.sub s 0 3 = "\xe2\x8a\xa5" then
    match int_of_string_opt (String.sub s 3 (n - 3)) with
    | Some k -> Null k
    | None -> Sym s
  else if n >= 3 && s.[0] = '_' && s.[1] = ':' then
    match int_of_string_opt (String.sub s 2 (n - 2)) with
    | Some k -> Null k
    | None -> Sym s
  else if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then
    Sym (Scanf.sscanf s "%S" Fun.id)
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s with
      | Some r -> Real r
      | None -> Sym s)

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
