type state =
  | Closed
  | Open of { until : float }
  | Half_open

type t = {
  threshold : int;
  cooldown : float;
  cooldown_cap : float;
  clock : unit -> float;
  mutable state : state;
  mutable failures : int;  (** consecutive, in [Closed] *)
  mutable trips : int;
  mutable current_cooldown : float;  (** doubles on every re-open *)
  mutable probe_taken : bool;  (** the single [Half_open] probe is out *)
}

let create ?(threshold = 3) ?(cooldown = 1.0) ?(cooldown_cap = 60.0) ?clock ()
    =
  if threshold < 1 then invalid_arg "Breaker.create: threshold < 1";
  if cooldown <= 0. then invalid_arg "Breaker.create: cooldown <= 0";
  if cooldown_cap < cooldown then
    invalid_arg "Breaker.create: cooldown_cap < cooldown";
  { threshold;
    cooldown;
    cooldown_cap;
    clock = Option.value ~default:Mdqa_obs.Clock.now clock;
    state = Closed;
    failures = 0;
    trips = 0;
    current_cooldown = cooldown;
    probe_taken = false }

let open_for t cooldown =
  t.trips <- t.trips + 1;
  t.probe_taken <- false;
  t.state <- Open { until = t.clock () +. cooldown }

let allow t =
  match t.state with
  | Closed -> true
  | Half_open ->
    if t.probe_taken then false
    else begin
      t.probe_taken <- true;
      true
    end
  | Open { until } ->
    if t.clock () >= until then begin
      t.state <- Half_open;
      t.probe_taken <- true;
      true
    end
    else false

let record_success t =
  t.state <- Closed;
  t.failures <- 0;
  t.probe_taken <- false;
  t.current_cooldown <- t.cooldown

let record_failure t =
  match t.state with
  | Closed ->
    t.failures <- t.failures + 1;
    if t.failures >= t.threshold then open_for t t.current_cooldown
  | Half_open ->
    (* the probe failed: back off harder before the next one *)
    t.current_cooldown <-
      Float.min t.cooldown_cap (t.current_cooldown *. 2.);
    open_for t t.current_cooldown
  | Open _ -> ()

(* Out-of-band trip: evidence from outside the protected call path
   (the scrubber finding a bad CRC on disk) opens the breaker at once,
   without waiting for [threshold] checkpoint failures. *)
let trip t =
  match t.state with
  | Open _ -> ()
  | Closed | Half_open -> open_for t t.current_cooldown

let state t = t.state
let consecutive_failures t = t.failures
let trips t = t.trips

let retry_at t = match t.state with Open { until } -> Some until | _ -> None

let retry_in t =
  Option.map (fun until -> Float.max 0. (until -. t.clock ())) (retry_at t)

let state_name t =
  match t.state with
  | Closed -> "closed"
  | Open _ -> "open"
  | Half_open -> "half-open"
