(* Ring-buffered span tracer, and the one timed scope behind both it and
   the profiler.  The clock is {!Clock.now} by default, injectable for
   tests, so traces are deterministic under a fake clock. *)

type event = {
  name : string;
  ts : float;
  dur : float;
  depth : int;
  attrs : (string * string) list;
}

type t = {
  clock : unit -> float;
  epoch : float;
  cap : int;
  ring : event option array;
  mutable written : int;  (* total events ever recorded *)
  mutable open_depth : int;
}

let create ?(capacity = 65536) ?(clock = Clock.now) () =
  let capacity = max 1 capacity in
  {
    clock;
    epoch = clock ();
    cap = capacity;
    ring = Array.make capacity None;
    written = 0;
    open_depth = 0;
  }

let record t ev =
  t.ring.(t.written mod t.cap) <- Some ev;
  t.written <- t.written + 1

(* ------------------------------------------------- global installation *)

let current : t option ref = ref None
let install t = current := Some t
let uninstall () = current := None
let installed () = !current
let active () = !current <> None || Profile.active ()

(* The one timed scope: [clock] is read on entry and on exit, and the
   one duration goes to each installed sink. *)
let scope ~clock tracer profiler attrs name f =
  let entry = Option.map (fun p -> (p, Profile.enter name)) profiler in
  let t0 = clock () in
  let depth =
    match tracer with
    | Some t ->
      t.open_depth <- t.open_depth + 1;
      t.open_depth
    | None -> 0
  in
  Fun.protect f ~finally:(fun () ->
      let dur = Float.max 0. (clock () -. t0) in
      Option.iter
        (fun t ->
          record t { name; ts = t0 -. t.epoch; dur; depth; attrs };
          t.open_depth <- max 0 (t.open_depth - 1))
        tracer;
      Option.iter (fun (p, e) -> Profile.leave p e name attrs dur) entry)

let with_span ?(attrs = []) name f =
  match (!current, Profile.installed ()) with
  | None, None -> f ()
  | (Some t as tracer), profiler ->
    scope ~clock:t.clock tracer profiler attrs name f
  | None, (Some p as profiler) ->
    scope ~clock:(fun () -> Profile.now p) None profiler attrs name f

(* -------------------------------------------------------------- export *)

let events t =
  let n = min t.written t.cap in
  let first = t.written - n in
  List.init n (fun i ->
      match t.ring.((first + i) mod t.cap) with
      | Some e -> e
      | None -> assert false)

let dropped t = max 0 (t.written - t.cap)
let depth t = t.open_depth

let clear t =
  Array.fill t.ring 0 t.cap None;
  t.written <- 0;
  t.open_depth <- 0

let export_json t =
  let open Jsonl in
  let micros s = Float (s *. 1e6) in
  let event ev =
    let args =
      ("depth", Num (float_of_int ev.depth))
      :: List.map (fun (k, v) -> (k, Str v)) ev.attrs
    in
    Obj
      [ ("name", Str ev.name); ("cat", Str "mdqa"); ("ph", Str "X");
        ("ts", micros ev.ts); ("dur", micros ev.dur); ("pid", Num 1.);
        ("tid", Num 1.); ("args", Obj args) ]
  in
  Obj
    [ ("traceEvents", List (List.map event (events t)));
      ("displayTimeUnit", Str "ms");
      ("otherData", Obj [ ("dropped", Str (string_of_int (dropped t))) ]) ]

let export_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Jsonl.to_string (export_json t));
      output_char oc '\n')
