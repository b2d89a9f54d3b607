type t = { name : string; attrs : Attribute.t array }

let make name attrs =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let n = Attribute.name a in
      if Hashtbl.mem seen n then
        invalid_arg
          (Printf.sprintf "Rel_schema.make: duplicate attribute %S in %s" n
             name);
      Hashtbl.add seen n ())
    attrs;
  { name; attrs = Array.of_list attrs }

let of_names name names = make name (List.map Attribute.plain names)

let name s = s.name
let attributes s = Array.to_list s.attrs
let arity s = Array.length s.attrs

let attribute s i =
  if i < 0 || i >= Array.length s.attrs then
    invalid_arg
      (Printf.sprintf "Rel_schema.attribute: position %d out of range for %s"
         i s.name);
  s.attrs.(i)

let categorical_positions s =
  let rec collect i acc =
    if i < 0 then acc
    else
      collect (i - 1)
        (if Attribute.is_categorical s.attrs.(i) then i :: acc else acc)
  in
  collect (Array.length s.attrs - 1) []

let compare a b =
  let c = String.compare a.name b.name in
  if c <> 0 then c
  else
    let c = Int.compare (Array.length a.attrs) (Array.length b.attrs) in
    if c <> 0 then c
    else
      let rec go i =
        if i >= Array.length a.attrs then 0
        else
          let c = Attribute.compare a.attrs.(i) b.attrs.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

let equal a b = compare a b = 0

let pp ppf s =
  Format.fprintf ppf "%s(%a)" s.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Attribute.pp)
    (attributes s)
