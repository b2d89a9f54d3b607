module Tuple = Mdqa_relational.Tuple
module Instance = Mdqa_relational.Instance
module Relation = Mdqa_relational.Relation

type tree = {
  fact : string * Tuple.t;
  rule : string option;
  premises : tree list;
}

module Fact_set = Set.Make (struct
  type t = string * Tuple.t
  let compare (p1, t1) (p2, t2) =
    let c = String.compare p1 p2 in
    if c <> 0 then c else Tuple.compare t1 t2
end)

let why (result : Chase.result) pred tuple =
  match result.Chase.provenance with
  | None -> Error "chase was run without ~provenance:true"
  | Some tbl ->
    let in_instance (p, t) =
      match Instance.find result.Chase.instance p with
      | Some rel -> Relation.mem rel t
      | None -> false
    in
    if not (in_instance (pred, tuple)) then
      Error
        (Format.asprintf "%s%a is not in the chased instance" pred Tuple.pp
           tuple)
    else begin
      (* the provenance table is acyclic by construction (a derivation
         only references facts present before the firing), but guard
         against pathological EGD remappings with a visited set *)
      let rec build visited fact =
        if Fact_set.mem fact visited then
          { fact; rule = None; premises = [] }
        else
          match Hashtbl.find_opt tbl fact with
          | None -> { fact; rule = None; premises = [] }
          | Some d ->
            let visited = Fact_set.add fact visited in
            { fact;
              rule = Some d.Chase.rule;
              premises = List.map (build visited) d.Chase.premises }
      in
      Ok (build Fact_set.empty (pred, tuple))
    end

let rec depth t =
  match t.rule with
  | None -> 0
  | Some _ -> 1 + List.fold_left (fun m p -> max m (depth p)) 0 t.premises

let rules_used t =
  let rec go acc t =
    let acc = match t.rule with Some r -> r :: acc | None -> acc in
    List.fold_left go acc t.premises
  in
  List.sort_uniq String.compare (go [] t)

let extensional_support t =
  let rec go acc t =
    match t.rule with
    | None -> Fact_set.add t.fact acc
    | Some _ -> List.fold_left go acc t.premises
  in
  Fact_set.elements (go Fact_set.empty t)

(* ------------------------------------------------- cost explanation *)

module Profile = Mdqa_obs.Profile

type atom_cost = { atom : Atom.t; atom_idx : int; stat : Profile.atom_stat }

type rule_cost = {
  rule_name : string;
  rule : Profile.rule_stat;
  body : atom_cost list;
}

let cost snap (tgds : Tgd.t list) =
  let of_tgd (tgd : Tgd.t) =
    let name = tgd.Tgd.name in
    let rule =
      Option.value (Profile.find_rule snap name)
        ~default:
          { Profile.fires = 0; triggers = 0; matches = 0; rule_seconds = 0.;
            enumerate_seconds = 0.; probe_seconds = 0.; insert_seconds = 0. }
    in
    let body =
      List.mapi
        (fun i a ->
          let stat =
            Option.value
              ~default:
                { Profile.visits = 0; scanned = 0; matched = 0; key = "";
                  step = max_int }
              (Profile.find_atom snap (name, i, Atom.pred a))
          in
          { atom = a; atom_idx = i; stat })
        tgd.Tgd.body
    in
    { rule_name = name; rule; body }
  in
  let seconds rc = rc.rule.Profile.rule_seconds in
  List.map of_tgd tgds
  |> List.sort (fun a b ->
         compare (seconds b, b.rule_name) (seconds a, a.rule_name))

let pp_rule_cost ppf rc =
  let r = rc.rule in
  Format.fprintf ppf
    "@[<v>%s  fires=%d triggers=%d matches=%d time=%.6fs (enumerate=%.6fs \
     probe=%.6fs insert=%.6fs other=%.6fs)@,"
    rc.rule_name r.Profile.fires r.Profile.triggers r.Profile.matches
    r.Profile.rule_seconds r.Profile.enumerate_seconds r.Profile.probe_seconds
    r.Profile.insert_seconds (Profile.bookkeeping_seconds r);
  let executed =
    List.stable_sort
      (fun a b -> Int.compare a.stat.Profile.step b.stat.Profile.step)
      rc.body
  in
  List.iter
    (fun ac ->
      let s = ac.stat in
      Format.fprintf ppf
        "  [%d] %a  %s visits=%d scanned=%d matched=%d fan-out=%.3f \
         selectivity=%.3f@,"
        ac.atom_idx Atom.pp ac.atom
        (if s.Profile.key = "" then "unvisited" else s.Profile.key)
        s.Profile.visits s.Profile.scanned s.Profile.matched
        (Profile.fan_out s) (Profile.selectivity s))
    executed;
  Format.fprintf ppf "@]"

let pp_cost ppf costs =
  Format.fprintf ppf "@[<v>";
  List.iter (fun rc -> pp_rule_cost ppf rc) costs;
  Format.fprintf ppf "@]"

let pp ppf tree =
  let rec go indent t =
    let pred, tuple = t.fact in
    Format.fprintf ppf "%s%s%a   %s@," indent pred Tuple.pp tuple
      (match t.rule with
       | Some r -> "[" ^ r ^ "]"
       | None -> "(extensional)");
    List.iter (go (indent ^ "  ")) t.premises
  in
  Format.fprintf ppf "@[<v>";
  go "" tree;
  Format.fprintf ppf "@]"
