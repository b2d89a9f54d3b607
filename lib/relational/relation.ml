(* Composite-key indexes: the key of a tuple under an index over
   positions [ps] is [Tuple.project t ps]. *)
type index = Tuple.t list Tuple.Tbl.t

(* Per-position distinct counts and the cardinality they were taken at. *)
type stats = { counts : int array; at : int }

type t = {
  schema : Rel_schema.t;
  mutable tuples : Tuple.Set.t;
  mutable card : int;
  mutable indexes : (int list * index) list;
      (* one per probed position list, built lazily *)
  mutable stats : stats option;
}

let create schema =
  { schema; tuples = Tuple.Set.empty; card = 0; indexes = []; stats = None }

let schema r = r.schema
let name r = Rel_schema.name r.schema
let arity r = Rel_schema.arity r.schema
let cardinal r = r.card
let is_empty r = r.card = 0

let index_insert (idx : index) ps t =
  let key = Tuple.project t ps in
  match Tuple.Tbl.find_opt idx key with
  | Some items -> Tuple.Tbl.replace idx key (t :: items)
  | None -> Tuple.Tbl.add idx key [ t ]

let build_index r ps =
  let idx : index = Tuple.Tbl.create (max 16 r.card) in
  Tuple.Set.iter (index_insert idx ps) r.tuples;
  r.indexes <- (ps, idx) :: r.indexes;
  idx

(* Indexes and distinct counts describe the tuple set: a removal or a
   substitution that moves a tuple drops both (removals are rare; an EGD
   pass substitutes once, and only relations it touches lose theirs). *)
let invalidate r =
  r.indexes <- [];
  r.stats <- None

let check_arity r t =
  if Tuple.arity t <> arity r then
    invalid_arg
      (Printf.sprintf "Relation %s: arity mismatch (schema %d, tuple %d)"
         (name r) (arity r) (Tuple.arity t))

let add r t =
  check_arity r t;
  let tuples = Tuple.Set.add t r.tuples in
  (* [Set.add] returns the set itself when [t] is present *)
  if tuples == r.tuples then false
  else begin
    r.tuples <- tuples;
    r.card <- r.card + 1;
    List.iter (fun (ps, idx) -> index_insert idx ps t) r.indexes;
    true
  end

let union r s =
  if arity s <> arity r then
    invalid_arg
      (Printf.sprintf "Relation.union: %s has arity %d, %s has %d" (name r)
         (arity r) (name s) (arity s));
  if r.card = 0 then begin
    (* sets are persistent: sharing one is safe, whoever changes next *)
    r.tuples <- s.tuples;
    r.card <- s.card;
    r.indexes <- [];
    r.stats <- s.stats
  end
  else Tuple.Set.iter (fun t -> ignore (add r t)) s.tuples

let of_tuples schema ts =
  let r = create schema in
  List.iter (fun t -> ignore (add r t)) ts;
  r

let mem r t = Tuple.Set.mem t r.tuples

let remove r t =
  if not (Tuple.Set.mem t r.tuples) then false
  else begin
    r.tuples <- Tuple.Set.remove t r.tuples;
    r.card <- r.card - 1;
    invalidate r;
    true
  end

let iter f r = Tuple.Set.iter f r.tuples
let fold f r init = Tuple.Set.fold f r.tuples init
let to_list r = Tuple.Set.elements r.tuples
let to_set r = r.tuples

let rec ascending_from i = function
  | [] -> true
  | p :: rest -> p = i && ascending_from (i + 1) rest

let unresolved : index = Tuple.Tbl.create 1
let stale = [ ([], unresolved) ]  (* never a relation's index list *)

(* The index is fetched again whenever the relation's index list is no
   longer the one it was found in ([invalidate] drops the list), so the
   lookup outlives any rewrite. *)
let index r ps =
  if List.length ps = arity r && ascending_from 0 ps then fun key ->
    match Tuple.Set.find key r.tuples with
    | t -> [ t ]
    | exception Not_found -> []
  else
    let idx = ref unresolved and seen = ref stale in
    fun key ->
      if !seen != r.indexes then begin
        idx :=
          (match List.assoc_opt ps r.indexes with
           | Some i -> i
           | None -> build_index r ps);
        seen := r.indexes
      end;
      match Tuple.Tbl.find !idx key with l -> l | exception Not_found -> []

let probe r binding =
  match binding with
  | [] -> to_list r
  | _ -> index r (List.map fst binding) (Tuple.of_list (List.map snd binding))

(* One pass over the tuples with throwaway per-position sets: the
   counts outlive them, so no index is kept alive for estimation. *)
let count_distinct r =
  let sets = Array.init (arity r) (fun _ -> Hashtbl.create 64) in
  Tuple.Set.iter
    (fun t ->
      Array.iteri (fun p s -> Hashtbl.replace s (Tuple.get t p) ()) sets)
    r.tuples;
  { counts = Array.map Hashtbl.length sets; at = r.card }

let distinct r pos =
  let s =
    match r.stats with
    | Some s when r.card < 2 * s.at && 2 * r.card > s.at -> s
    | _ ->
      let s = count_distinct r in
      r.stats <- Some s;
      s
  in
  s.counts.(pos)

let substitute r sigma =
  let moved =
    Tuple.Set.filter (Tuple.exists (fun v -> Value.Map.mem v sigma)) r.tuples
  in
  if not (Tuple.Set.is_empty moved) then begin
    r.tuples <- Tuple.Set.diff r.tuples moved;
    r.card <- r.card - Tuple.Set.cardinal moved;
    invalidate r
  end;
  let image v = Option.value ~default:v (Value.Map.find_opt v sigma) in
  Tuple.Set.map
    (fun t ->
      let t = Tuple.map image t in
      ignore (add r t);
      t)
    moved

let filter p r =
  let r' = create r.schema in
  iter (fun t -> if p t then ignore (add r' t)) r;
  r'

let copy r =
  let c = create r.schema in
  union c r;
  c

let equal a b =
  Rel_schema.equal a.schema b.schema && Tuple.Set.equal a.tuples b.tuples

let pp ppf r =
  Format.fprintf ppf "@[<v2>%s = {" (name r);
  iter (fun t -> Format.fprintf ppf "@,%a" Tuple.pp t) r;
  Format.fprintf ppf "@]@,}"
