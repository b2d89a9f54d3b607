(* Cost-attribution profiler.  Mirrors Trace's installation idiom (a
   global [current] ref, one ref read on the disabled path) and
   Metrics' snapshot algebra (immutable sorted association lists with
   an associative, commutative merge).  It reads no clock for phases,
   rounds or queries: [Trace.with_span] times each scope once and hands
   the duration over ([enter]/[leave]).  The chase counts its own work
   per rule and hands each rule's totals over once, when a run ends. *)

type rule_stat = {
  fires : int;
  triggers : int;
  matches : int;
  rule_seconds : float;
  enumerate_seconds : float;
  probe_seconds : float;
  insert_seconds : float;
}

let add_rule_stats x y =
  { fires = x.fires + y.fires;
    triggers = x.triggers + y.triggers;
    matches = x.matches + y.matches;
    rule_seconds = x.rule_seconds +. y.rule_seconds;
    enumerate_seconds = x.enumerate_seconds +. y.enumerate_seconds;
    probe_seconds = x.probe_seconds +. y.probe_seconds;
    insert_seconds = x.insert_seconds +. y.insert_seconds }

let bookkeeping_seconds r =
  Float.max 0.
    (r.rule_seconds -. r.enumerate_seconds -. r.probe_seconds
   -. r.insert_seconds)

type atom_cell = {
  mutable a_visits : int;
  mutable a_scanned : int;
  mutable a_matched : int;
  mutable a_keys : string list;  (* distinct access paths seen *)
  mutable a_step : int;
}

(* Access paths are kept as a sorted, deduplicated "|"-separated set,
   so combining them is associative and commutative. *)
let union_keys a b =
  if String.equal a b then a
  else if a = "" then b
  else if b = "" then a
  else
    String.split_on_char '|' a @ String.split_on_char '|' b
    |> List.sort_uniq String.compare
    |> String.concat "|"

type round_cell = {
  mutable rd_count : int;
  mutable rd_seconds : float;
  mutable rd_minor : int;
  mutable rd_major : int;
  mutable rd_heap : int;
}

type query_cell = { mutable q_evals : int; mutable q_seconds : float }
type phase_cell = { mutable p_calls : int; mutable p_seconds : float }

type t = {
  clock : unit -> float;
  rules : (string, rule_stat) Hashtbl.t;
  atoms : (string * int * string, atom_cell) Hashtbl.t;
  rounds : (int, round_cell) Hashtbl.t;
  queries : (string, query_cell) Hashtbl.t;
  phases : (string, phase_cell) Hashtbl.t;
  mutable scope : string option;
}

let create ?(clock = Clock.now) () =
  {
    clock;
    rules = Hashtbl.create 16;
    atoms = Hashtbl.create 64;
    rounds = Hashtbl.create 16;
    queries = Hashtbl.create 16;
    phases = Hashtbl.create 8;
    scope = None;
  }

let clear t =
  Hashtbl.reset t.rules;
  Hashtbl.reset t.atoms;
  Hashtbl.reset t.rounds;
  Hashtbl.reset t.queries;
  Hashtbl.reset t.phases;
  t.scope <- None

(* ------------------------------------------------- global installation *)

let current : t option ref = ref None
let install t = current := Some t
let uninstall () = current := None
let installed () = !current
let active () = !current <> None

(* ------------------------------------------------------------- hooks *)

let now t = t.clock ()

let add_rule t name r =
  Hashtbl.replace t.rules name
    (match Hashtbl.find_opt t.rules name with
     | Some prev -> add_rule_stats prev r
     | None -> r)

let with_scope t name f =
  let saved = t.scope in
  t.scope <- Some name;
  Fun.protect ~finally:(fun () -> t.scope <- saved) f

let scoped () =
  match !current with
  | Some t when t.scope <> None -> Some t
  | _ -> None

(* The cell under [key], made by [fresh] on first use. *)
let cell tbl key fresh =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
    let c = fresh () in
    Hashtbl.add tbl key c;
    c

let atom_cell t ~idx ~pred ~step ~key =
  Option.map
    (fun scope ->
      let cell =
        cell t.atoms (scope, idx, pred) (fun () ->
            { a_visits = 0; a_scanned = 0; a_matched = 0; a_keys = [ key ];
              a_step = step })
      in
      if not (List.exists (String.equal key) cell.a_keys) then
        cell.a_keys <- key :: cell.a_keys;
      if step < cell.a_step then cell.a_step <- step;
      cell)
    t.scope

let count_visit cell ~scanned ~matched =
  cell.a_visits <- cell.a_visits + 1;
  cell.a_scanned <- cell.a_scanned + scanned;
  cell.a_matched <- cell.a_matched + matched

(* ------------------------------------------------------ scope sink *)

(* A closed scope is filed under its name in [phases]; a chase round is
   also filed by its "round" attribute, with the GC counters sampled at
   its entry, and a query evaluation by its "query" attribute. *)
type entry = Gc.stat option

let enter name =
  if String.equal name "chase.round" then Some (Gc.quick_stat ()) else None

let leave t entry name attrs dt =
  let p = cell t.phases name (fun () -> { p_calls = 0; p_seconds = 0. }) in
  p.p_calls <- p.p_calls + 1;
  p.p_seconds <- p.p_seconds +. dt;
  match entry with
  | Some g0 ->
    Option.iter
      (fun n ->
        let g1 = Gc.quick_stat () in
        let c =
          cell t.rounds n (fun () ->
              { rd_count = 0; rd_seconds = 0.; rd_minor = 0; rd_major = 0;
                rd_heap = 0 })
        in
        c.rd_count <- c.rd_count + 1;
        c.rd_seconds <- c.rd_seconds +. dt;
        let delta f = max 0 (f g1 - f g0) in
        c.rd_minor <- c.rd_minor + delta (fun g -> g.Gc.minor_collections);
        c.rd_major <- c.rd_major + delta (fun g -> g.Gc.major_collections);
        c.rd_heap <- max c.rd_heap g1.Gc.heap_words)
      (Option.bind (List.assoc_opt "round" attrs) int_of_string_opt)
  | None when String.equal name "eval" ->
    Option.iter
      (fun q ->
        let c = cell t.queries q (fun () -> { q_evals = 0; q_seconds = 0. }) in
        c.q_evals <- c.q_evals + 1;
        c.q_seconds <- c.q_seconds +. dt)
      (List.assoc_opt "query" attrs)
  | None -> ()

(* --------------------------------------------------------- snapshots *)

type atom_stat = {
  visits : int;
  scanned : int;
  matched : int;
  key : string;
  step : int;
}

type round_stat = {
  round_count : int;
  round_seconds : float;
  minor_collections : int;
  major_collections : int;
  heap_words : int;
}

type query_stat = { evals : int; query_seconds : float }
type phase_stat = { calls : int; phase_seconds : float }

type snapshot = {
  rules : (string * rule_stat) list;
  atoms : ((string * int * string) * atom_stat) list;
  rounds : (int * round_stat) list;
  queries : (string * query_stat) list;
  phases : (string * phase_stat) list;
}

let empty = { rules = []; atoms = []; rounds = []; queries = []; phases = [] }

let sorted_bindings cmp tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

let snapshot (t : t) =
  {
    rules =
      sorted_bindings String.compare t.rules Fun.id;
    atoms =
      sorted_bindings compare t.atoms (fun c ->
          { visits = c.a_visits; scanned = c.a_scanned;
            matched = c.a_matched;
            key = List.fold_left union_keys "" c.a_keys; step = c.a_step });
    rounds =
      sorted_bindings compare t.rounds (fun c ->
          { round_count = c.rd_count; round_seconds = c.rd_seconds;
            minor_collections = c.rd_minor; major_collections = c.rd_major;
            heap_words = c.rd_heap });
    queries =
      sorted_bindings String.compare t.queries (fun c ->
          { evals = c.q_evals; query_seconds = c.q_seconds });
    phases =
      sorted_bindings String.compare t.phases (fun c ->
          { calls = c.p_calls; phase_seconds = c.p_seconds });
  }

(* Merge two sorted association lists, combining values under equal
   keys with [f]; keys only in one side pass through, so the result is
   sorted and the operation inherits [f]'s associativity. *)
let rec merge_assoc cmp f a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (ka, va) :: ra, (kb, vb) :: rb ->
    let c = cmp ka kb in
    if c < 0 then (ka, va) :: merge_assoc cmp f ra b
    else if c > 0 then (kb, vb) :: merge_assoc cmp f a rb
    else (ka, f va vb) :: merge_assoc cmp f ra rb

let merge a b =
  {
    rules = merge_assoc String.compare add_rule_stats a.rules b.rules;
    atoms =
      merge_assoc compare
        (fun x y ->
          { visits = x.visits + y.visits;
            scanned = x.scanned + y.scanned;
            matched = x.matched + y.matched;
            key = union_keys x.key y.key;
            step = min x.step y.step })
        a.atoms b.atoms;
    rounds =
      merge_assoc compare
        (fun x y ->
          { round_count = x.round_count + y.round_count;
            round_seconds = x.round_seconds +. y.round_seconds;
            minor_collections = x.minor_collections + y.minor_collections;
            major_collections = x.major_collections + y.major_collections;
            heap_words = max x.heap_words y.heap_words })
        a.rounds b.rounds;
    queries =
      merge_assoc String.compare
        (fun x y ->
          { evals = x.evals + y.evals;
            query_seconds = x.query_seconds +. y.query_seconds })
        a.queries b.queries;
    phases =
      merge_assoc String.compare
        (fun x y ->
          { calls = x.calls + y.calls;
            phase_seconds = x.phase_seconds +. y.phase_seconds })
        a.phases b.phases;
  }

let find_rule s name = List.assoc_opt name s.rules
let find_atom s key = List.assoc_opt key s.atoms
let find_phase s name = List.assoc_opt name s.phases

let selectivity a =
  if a.scanned = 0 then 0. else float_of_int a.matched /. float_of_int a.scanned

let fan_out a =
  if a.visits = 0 then 0. else float_of_int a.matched /. float_of_int a.visits

let total_rule_seconds s =
  List.fold_left (fun acc (_, r) -> acc +. r.rule_seconds) 0. s.rules

let total_query_seconds s =
  List.fold_left (fun acc (_, q) -> acc +. q.query_seconds) 0. s.queries

(* ------------------------------------------------------------ export *)

let to_json s =
  let open Jsonl in
  let int i = Num (float_of_int i) in
  let rows l f = List (List.map f l) in
  Obj
    [ ("rules",
       rows s.rules (fun (name, r) ->
           Obj
             [ ("rule", Str name); ("fires", int r.fires);
               ("triggers", int r.triggers); ("matches", int r.matches);
               ("seconds", Float r.rule_seconds);
               ("enumerate_seconds", Float r.enumerate_seconds);
               ("probe_seconds", Float r.probe_seconds);
               ("insert_seconds", Float r.insert_seconds);
               ("bookkeeping_seconds", Float (bookkeeping_seconds r)) ]));
      ("atoms",
       rows s.atoms (fun ((scope, idx, pred), a) ->
           Obj
             [ ("rule", Str scope); ("atom", int idx); ("pred", Str pred);
               ("step", int a.step); ("key", Str a.key);
               ("visits", int a.visits); ("scanned", int a.scanned);
               ("matched", int a.matched);
               ("selectivity", Float (selectivity a));
               ("fan_out", Float (fan_out a)) ]));
      ("rounds",
       rows s.rounds (fun (n, r) ->
           Obj
             [ ("round", int n); ("count", int r.round_count);
               ("seconds", Float r.round_seconds);
               ("minor_collections", int r.minor_collections);
               ("major_collections", int r.major_collections);
               ("heap_words", int r.heap_words) ]));
      ("queries",
       rows s.queries (fun (name, q) ->
           Obj
             [ ("query", Str name); ("evals", int q.evals);
               ("seconds", Float q.query_seconds) ]));
      ("phases",
       rows s.phases (fun (name, p) ->
           Obj
             [ ("phase", Str name); ("calls", int p.calls);
               ("seconds", Float p.phase_seconds) ])) ]
