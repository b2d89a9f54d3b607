type resource =
  | Steps
  | Nulls
  | Rows
  | Cqs
  | Depth
  | Repair_branches
  | Checkpoint_bytes
  | Deadline
  | Memory
  | Cancelled

type exhaustion = {
  resource : resource;
  limit : float;
  used : float;
}

type consumption = {
  steps : int;
  nulls : int;
  rows : int;
  cqs : int;
  repair_branches : int;
  checkpoint_bytes : int;
  elapsed : float;
  heap_mb : float;
}

type 'a outcome =
  | Complete of 'a
  | Degraded of 'a * exhaustion

exception Exhausted of exhaustion

module Clock = Mdqa_obs.Clock

let word_bytes = float_of_int (Sys.word_size / 8)

let default_heap_sampler () =
  let s = Gc.quick_stat () in
  float_of_int s.Gc.heap_words *. word_bytes /. 1_048_576.

type t = {
  max_steps : int option;
  max_nulls : int option;
  max_rows : int option;
  max_cqs : int option;
  max_repair_branches : int option;
  max_checkpoint_bytes : int option;
  deadline : float option;  (* absolute, in the guard's clock *)
  timeout : float option;  (* the configured relative limit, for reports *)
  max_memory_mb : float option;
  clock : unit -> float;
  heap_sampler : unit -> float;
  check_every : int;
  started : float;
  mutable steps : int;
  mutable nulls : int;
  mutable rows : int;
  mutable cqs : int;
  mutable repair_branches : int;
  mutable checkpoint_bytes : int;
  mutable ticks : int;
  mutable heap_mb : float;
  mutable cancelled : bool;
  mutable tripped : exhaustion option;
}

let create ?max_steps ?max_nulls ?max_rows ?max_cqs ?max_repair_branches
    ?max_checkpoint_bytes ?timeout ?max_memory_mb ?clock ?heap_sampler
    ?(check_every = 64) () =
  if check_every < 1 then invalid_arg "Guard.create: check_every < 1";
  let clock = Option.value ~default:Clock.now clock in
  let heap_sampler = Option.value ~default:default_heap_sampler heap_sampler in
  let started = clock () in
  { max_steps;
    max_nulls;
    max_rows;
    max_cqs;
    max_repair_branches;
    max_checkpoint_bytes;
    deadline = Option.map (fun s -> started +. s) timeout;
    timeout;
    max_memory_mb;
    clock;
    heap_sampler;
    check_every;
    started;
    steps = 0;
    nulls = 0;
    rows = 0;
    cqs = 0;
    repair_branches = 0;
    checkpoint_bytes = 0;
    ticks = 0;
    heap_mb = 0.;
    cancelled = false;
    tripped = None }

let unlimited () = create ()

(* Child budgets are capped by what remains of the parent's: a forked
   request can never spend more than the enclosing service has left. *)
let fork ?max_steps ?max_cqs ?timeout g =
  let rem ?requested limit used =
    let remaining = Option.map (fun l -> max 0 (l - used)) limit in
    match (remaining, requested) with
    | None, r -> r
    | (Some _ as r), None -> r
    | Some r, Some q -> Some (min r q)
  in
  let started = g.clock () in
  (* the earlier deadline and the timeout that sets it; a requested one
     is kept as given, so a trip reports the limit that was asked for *)
  let limit =
    match
      ( Option.map (fun d -> (d, d -. started)) g.deadline,
        Option.map (fun s -> (started +. s, s)) timeout )
    with
    | None, l | l, None -> l
    | (Some (a, _) as inherited), (Some (b, _) as requested) ->
      if b <= a then requested else inherited
  in
  { g with
    max_steps = rem g.max_steps g.steps ?requested:max_steps;
    max_nulls = rem g.max_nulls g.nulls;
    max_rows = rem g.max_rows g.rows;
    max_cqs = rem g.max_cqs g.cqs ?requested:max_cqs;
    max_repair_branches = rem g.max_repair_branches g.repair_branches;
    max_checkpoint_bytes = rem g.max_checkpoint_bytes g.checkpoint_bytes;
    deadline = Option.map fst limit;
    timeout = Option.map snd limit;
    started;
    steps = 0;
    nulls = 0;
    rows = 0;
    cqs = 0;
    repair_branches = 0;
    checkpoint_bytes = 0;
    ticks = 0;
    heap_mb = 0.;
    tripped = None }

let absorb parent child =
  parent.steps <- parent.steps + child.steps;
  parent.nulls <- parent.nulls + child.nulls;
  parent.rows <- parent.rows + child.rows;
  parent.cqs <- parent.cqs + child.cqs;
  parent.repair_branches <- parent.repair_branches + child.repair_branches;
  parent.checkpoint_bytes <- parent.checkpoint_bytes + child.checkpoint_bytes;
  if child.heap_mb > parent.heap_mb then parent.heap_mb <- child.heap_mb

let cancel g = g.cancelled <- true
let is_cancelled g = g.cancelled

let trip g resource ~limit ~used =
  let e = { resource; limit; used } in
  g.tripped <- Some e;
  raise (Exhausted e)

(* A trip is sticky: a guard shared across pipeline stages keeps
   re-raising the original report, so later stages stop immediately
   instead of consuming a fresh budget. *)
let reraise_if_tripped g =
  match g.tripped with Some e -> raise (Exhausted e) | None -> ()

let check g =
  reraise_if_tripped g;
  if g.cancelled then trip g Cancelled ~limit:0. ~used:0.;
  (match g.deadline with
   | Some d ->
     let now = g.clock () in
     if now > d then
       trip g Deadline
         ~limit:(Option.value ~default:0. g.timeout)
         ~used:(now -. g.started)
   | None -> ());
  match g.max_memory_mb with
  | Some m ->
    let heap = g.heap_sampler () in
    g.heap_mb <- heap;
    if heap > m then trip g Memory ~limit:m ~used:heap
  | None -> ()

let tick g =
  reraise_if_tripped g;
  g.ticks <- g.ticks + 1;
  if g.ticks >= g.check_every then begin
    g.ticks <- 0;
    check g
  end

let count ~resource ~limit ~get ~set g =
  reraise_if_tripped g;
  set g (get g + 1);
  (match limit g with
   | Some l when get g > l ->
     trip g resource ~limit:(float_of_int l) ~used:(float_of_int (get g))
   | _ -> ());
  tick g

let count_step g =
  count g ~resource:Steps
    ~limit:(fun g -> g.max_steps)
    ~get:(fun g -> g.steps)
    ~set:(fun g n -> g.steps <- n)

let count_null g =
  count g ~resource:Nulls
    ~limit:(fun g -> g.max_nulls)
    ~get:(fun g -> g.nulls)
    ~set:(fun g n -> g.nulls <- n)

let count_row g =
  count g ~resource:Rows
    ~limit:(fun g -> g.max_rows)
    ~get:(fun g -> g.rows)
    ~set:(fun g n -> g.rows <- n)

let count_cq g =
  count g ~resource:Cqs
    ~limit:(fun g -> g.max_cqs)
    ~get:(fun g -> g.cqs)
    ~set:(fun g n -> g.cqs <- n)

let count_repair_branch g =
  count g ~resource:Repair_branches
    ~limit:(fun g -> g.max_repair_branches)
    ~get:(fun g -> g.repair_branches)
    ~set:(fun g n -> g.repair_branches <- n)

(* Checkpoint I/O arrives in multi-byte chunks, so this counter takes
   an increment instead of assuming 1 like the others. *)
let count_checkpoint_bytes g n =
  if n < 0 then invalid_arg "Guard.count_checkpoint_bytes: negative";
  reraise_if_tripped g;
  g.checkpoint_bytes <- g.checkpoint_bytes + n;
  (match g.max_checkpoint_bytes with
   | Some l when g.checkpoint_bytes > l ->
     trip g Checkpoint_bytes ~limit:(float_of_int l)
       ~used:(float_of_int g.checkpoint_bytes)
   | _ -> ());
  tick g

let consumption g =
  { steps = g.steps;
    nulls = g.nulls;
    rows = g.rows;
    cqs = g.cqs;
    repair_branches = g.repair_branches;
    checkpoint_bytes = g.checkpoint_bytes;
    elapsed = g.clock () -. g.started;
    heap_mb = (if g.heap_mb > 0. then g.heap_mb else g.heap_sampler ()) }

let exhaustion g = g.tripped

(* Publish the current consumption as gauges.  Gauges (not counters):
   a guard is per-run state and [Metrics.merge] takes the max, which is
   the right reading for watermark-style quantities. *)
let record_metrics g m =
  let set name help v =
    Mdqa_obs.Metrics.set (Mdqa_obs.Metrics.gauge m ~help name) v
  in
  let c = consumption g in
  set "mdqa_guard_steps" "chase steps consumed" (float_of_int c.steps);
  set "mdqa_guard_nulls" "nulls consumed" (float_of_int c.nulls);
  set "mdqa_guard_rows" "join rows consumed" (float_of_int c.rows);
  set "mdqa_guard_cqs" "rewriting CQs consumed" (float_of_int c.cqs);
  set "mdqa_guard_repair_branches" "repair branches consumed"
    (float_of_int c.repair_branches);
  set "mdqa_guard_checkpoint_bytes" "checkpoint bytes consumed"
    (float_of_int c.checkpoint_bytes);
  set "mdqa_guard_elapsed_seconds" "seconds since the guard was created"
    c.elapsed;
  set "mdqa_guard_heap_mb" "heap watermark in MiB" c.heap_mb

let value = function Complete v | Degraded (v, _) -> v
let degraded = function Complete _ -> None | Degraded (_, e) -> Some e

let resource_name = function
  | Steps -> "steps"
  | Nulls -> "nulls"
  | Rows -> "rows"
  | Cqs -> "cqs"
  | Depth -> "depth"
  | Repair_branches -> "repair branches"
  | Checkpoint_bytes -> "checkpoint bytes"
  | Deadline -> "deadline"
  | Memory -> "memory"
  | Cancelled -> "cancelled"

let pp_exhaustion ppf e =
  match e.resource with
  | Cancelled -> Format.pp_print_string ppf "cancelled"
  | Deadline ->
    Format.fprintf ppf "deadline exceeded (%.3fs elapsed, limit %gs)"
      e.used e.limit
  | Memory ->
    Format.fprintf ppf "memory watermark exceeded (%.1f MiB, limit %.1f MiB)"
      e.used e.limit
  | Depth ->
    Format.fprintf ppf "proof depth limit %.0f reached: deeper branches pruned"
      e.limit
  | r ->
    Format.fprintf ppf "%s budget exhausted (%.0f used, limit %.0f)"
      (resource_name r) e.used e.limit

