module Value = Mdqa_relational.Value

let all_member = Value.sym "all"

type problem =
  | Unknown_category of { member : int; name : string; category : string }
  | Duplicate_member of { member : int; name : string; first : string }
  | Unknown_member of { link : int; name : string }
  | Off_schema_link of {
      link : int;
      child : string;
      parent : string;
      child_category : string;
      parent_category : string;
    }

type violation =
  | Non_strict of {
      member : Value.t;
      category : string;
      ancestor_category : string;
      ancestors : Value.t list;
    }
  | Non_covering of {
      member : Value.t;
      category : string;
      parent_category : string;
    }

type report = {
  strict : bool;
  homogeneous : bool;
  violations : violation list;
}

(* Members are numbered in declaration order, [all] first, and
   categories top-down (the reverse of [Dim_schema.categories], so
   [All] is 0): a member's parents are in categories numbered below its
   own.  Member lists and arrays within one category are by name. *)
type t = {
  schema : Dim_schema.t;
  categories : string array;  (* category -> its name *)
  index : int array;  (* {!Value.slot}s over [value]: member value -> member *)
  value : Value.t array;  (* member -> its value *)
  category : int array;  (* member -> its category *)
  parents : int list array;  (* member -> its parents, by name *)
  ancestors : int list array array;
      (* member -> per category, the members it rolls up to there *)
  members : int array array;  (* category -> its members *)
  drilldowns : (int, int) Hashtbl.t Lazy.t;
      (* member * #categories + category -> each descendant there *)
  report : report;
}

let message schema p =
  let dim = Dim_schema.name schema in
  match p with
  | Unknown_category { name; category; _ } ->
    Printf.sprintf "dimension %s has no category %s (member %s)" dim category
      name
  | Duplicate_member { name; first; _ } ->
    Printf.sprintf "member %s already declared in category %s of dimension %s"
      name first dim
  | Unknown_member { name; _ } ->
    Printf.sprintf "link references unknown member %s of dimension %s" name dim
  | Off_schema_link { child; parent; child_category; parent_category; _ } ->
    Printf.sprintf
      "link %s -> %s does not follow a schema edge (%s -> %s) in dimension %s"
      child parent child_category parent_category dim

let ascending cmp a =
  let rec go i = i <= 0 || (cmp a.(i - 1) a.(i) < 0 && go (i - 1)) in
  go (Array.length a - 1)

(* A category's number, -1 if the schema has none of that name. *)
let number categories c =
  Option.value ~default:(-1) (Array.find_index (String.equal c) categories)

(* The roll-up closure, top-down over the categories, so a member's
   parents have their ancestors before it: its ancestors in a category
   are the union, over its parents p, of {p} and p's ancestors there.
   All members whose only parent is p share one array of ancestors.
   The same pass sorts each member's parents by name ([all] added under
   All) and records its violations (each ancestor category it reaches
   at least two members of, then each parent category it has no parent
   in), members by descending name, so the list ends up bottom-up and
   by name. *)
let build schema categories index value category parents ~above ~up =
  let n = Array.length value and ncat = Array.length categories in
  let lists = Array.make ncat [] in
  for m = n - 1 downto 0 do
    lists.(category.(m)) <- m :: lists.(category.(m))
  done;
  let members = Array.map Array.of_list lists in
  let by_name a b = Value.compare value.(a) value.(b) in
  let union a b = List.sort_uniq by_name (a @ b) in
  Array.iter
    (fun ms -> if not (ascending by_name ms) then Array.sort by_name ms)
    members;
  let none = Array.make ncat [] in
  let ancestors = Array.make n none and only = Array.make n [||] in
  let only p =
    if only.(p) == [||] then begin
      only.(p) <- Array.copy ancestors.(p);
      only.(p).(category.(p)) <- [ p ]
    end;
    only.(p)
  in
  let violated = ref [] in
  Array.iteri
    (fun c ms ->
      for i = Array.length ms - 1 downto 0 do
        let m = ms.(i) and member = value.(ms.(i)) in
        let ps = if List.mem 0 up.(c) then 0 :: parents.(m) else parents.(m) in
        let ps = List.sort_uniq by_name ps in
        let a =
          match ps with
          | [ p ] -> only p
          | _ -> List.fold_left (fun a p -> Array.map2 union a (only p)) none ps
        in
        parents.(m) <- ps;
        ancestors.(m) <- a;
        violated :=
          List.filter_map
            (fun ac ->
              match a.(ac) with
              | _ :: _ :: _ as l ->
                Some
                  (Non_strict
                     { member; category = categories.(c);
                       ancestor_category = categories.(ac);
                       ancestors = List.map (Array.get value) l })
              | _ -> None)
            above.(c)
          @ List.filter_map
              (fun pc ->
                if List.exists (fun p -> category.(p) = pc) ps then None
                else
                  Some
                    (Non_covering
                       { member; category = categories.(c);
                         parent_category = categories.(pc) }))
              up.(c)
          @ !violated
      done)
    members;
  (* The inverse holds every member once per ancestor, and the
     assessment pipeline never drills down: build it on first use. *)
  let drilldowns =
    lazy
      (let down = Hashtbl.create 64 in
       Array.iter
         (Array.iter (fun m ->
              Array.iter
                (List.iter (fun a ->
                     Hashtbl.add down ((a * ncat) + category.(m)) m))
                ancestors.(m)))
         members;
       down)
  in
  let no f = not (List.exists f !violated) in
  { schema; categories; index; value; category; parents; ancestors; members;
    drilldowns;
    report =
      { strict = no (function Non_strict _ -> true | _ -> false);
        homogeneous = no (function Non_covering _ -> true | _ -> false);
        violations = !violated } }

(* One pass over a declaration finds its problems and numbers each
   member (the first declaration wins, found by one probe) with its
   category and its parents along schema edges; the closure is built
   only when there is no problem, and then every declared member has a
   number. *)
let check ?(sym = Value.sym) schema ~members ~links =
  let problems = ref [] in
  let report p = problems := p :: !problems in
  let categories = Array.of_list (List.rev (Dim_schema.categories schema)) in
  let numbers f =
    Array.map (fun c -> List.map (number categories) (f schema c)) categories
  in
  let above = numbers Dim_schema.ancestors
  and up = numbers Dim_schema.parents in
  let n =
    List.fold_left (fun n (_, names) -> n + List.length names) 1 members
  in
  let index = Value.slots n and value = Array.make n (sym "all") in
  let category = Array.make n 0 and declared_in = Array.make n Dim_schema.all in
  let declared = Array.make n [] and count = ref 1 and member = ref 0 in
  index.(Value.slot index value value.(0)) <- 0;
  List.iter
    (fun (cat, names) ->
      let c = number categories cat in
      List.iter
        (fun name ->
          if c < 0 then
            report
              (Unknown_category { member = !member; name; category = cat });
          let v = sym name in
          let s = Value.slot index value v in
          (match index.(s) with
           | -1 ->
             index.(s) <- !count;
             value.(!count) <- v;
             category.(!count) <- c;
             declared_in.(!count) <- cat;
             incr count
           | first ->
             report
               (Duplicate_member
                  { member = !member; name; first = declared_in.(first) }));
          incr member)
        names)
    members;
  let find name = index.(Value.slot index value (sym name)) in
  List.iteri
    (fun link (child, parent) ->
      match (find child, find parent) with
      | -1, _ -> report (Unknown_member { link; name = child })
      | _, -1 -> report (Unknown_member { link; name = parent })
      | c, p ->
        let cc = category.(c) and pc = category.(p) in
        if cc < 0 || pc < 0 then ()
        else if List.mem pc up.(cc) then declared.(c) <- p :: declared.(c)
        else
          report
            (Off_schema_link
               { link; child; parent; child_category = categories.(cc);
                 parent_category = categories.(pc) }))
    links;
  if !problems = [] then
    Ok (build schema categories index value category declared ~above ~up)
  else Error (List.rev !problems)

let make schema ~members ~links =
  match check schema ~members ~links with
  | Ok t -> t
  | Error ps -> invalid_arg (message schema (List.hd ps))

let schema t = t.schema

let member_number t v =
  match t.index.(Value.slot t.index t.value v) with -1 -> None | m -> Some m

let members t cat =
  match number t.categories cat with
  | -1 -> raise Not_found
  | c -> Array.fold_right (fun m l -> t.value.(m) :: l) t.members.(c) []

let category_of t v =
  Option.map (fun m -> t.categories.(t.category.(m))) (member_number t v)

let member_parents t v =
  match member_number t v with
  | Some m -> List.map (Array.get t.value) t.parents.(m)
  | None -> []

let rollup t v ~to_category =
  match (member_number t v, number t.categories to_category) with
  | Some m, c when c >= 0 -> List.map (Array.get t.value) t.ancestors.(m).(c)
  | _ -> []

let drilldown t v ~to_category =
  match (member_number t v, number t.categories to_category) with
  | Some a, c when c >= 0 ->
    List.rev_map (Array.get t.value)
      (Hashtbl.find_all (Lazy.force t.drilldowns)
         ((a * Array.length t.categories) + c))
  | _ -> []

let fold_links t ~child ~parent f init =
  match (number t.categories child, number t.categories parent) with
  | -1, _ | _, -1 -> init
  | c, pc ->
    Array.fold_left
      (fun acc m ->
        List.fold_left
          (fun acc p ->
            if t.category.(p) = pc then f t.value.(m) t.value.(p) acc else acc)
          acc t.parents.(m))
      init t.members.(c)

let diagnose t = t.report

let summarizable t ~from_category ~to_category =
  Dim_schema.is_ancestor t.schema ~ancestor:to_category from_category
  && List.for_all
       (fun m -> List.length (rollup t m ~to_category) = 1)
       (members t from_category)

let pp_violation ppf = function
  | Non_strict { member; category; ancestor_category; ancestors } ->
    Format.fprintf ppf "non-strict: %a (%s) rolls up to {%s} in %s"
      Value.pp member category
      (String.concat ", " (List.map Value.to_string ancestors))
      ancestor_category
  | Non_covering { member; category; parent_category } ->
    Format.fprintf ppf "non-covering: %a (%s) has no parent in %s" Value.pp
      member category parent_category

let pp_report ppf r =
  Format.fprintf ppf "@[<v>strict: %b, homogeneous: %b" r.strict r.homogeneous;
  List.iter (fun v -> Format.fprintf ppf "@,  %a" pp_violation v) r.violations;
  Format.fprintf ppf "@]"

let pp ppf t =
  Format.fprintf ppf "@[<v>instance of %a:" Dim_schema.pp t.schema;
  List.iter
    (fun cat ->
      if cat <> Dim_schema.all then
        Format.fprintf ppf "@,  %s = {%s}" cat
          (String.concat ", " (List.map Value.to_string (members t cat))))
    (Dim_schema.categories t.schema);
  Format.fprintf ppf "@]"
