(* Ring-buffered span tracer.  The clock is {!Clock.now} by default,
   injectable for tests, so traces are deterministic under a fake
   clock. *)

type event = {
  name : string;
  ts : float;
  dur : float;
  depth : int;
  attrs : (string * string) list;
}

type span = {
  sp_name : string;
  sp_t0 : float;
  sp_depth : int;
  sp_attrs : (string * string) list;
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

let span_begin t ?(attrs = []) name =
  t.open_depth <- t.open_depth + 1;
  { sp_name = name; sp_t0 = t.clock (); sp_depth = t.open_depth; sp_attrs = attrs }

let span_end t ?(attrs = []) sp =
  let now = t.clock () in
  record t
    {
      name = sp.sp_name;
      ts = sp.sp_t0 -. t.epoch;
      dur = Float.max 0. (now -. sp.sp_t0);
      depth = sp.sp_depth;
      attrs = sp.sp_attrs @ attrs;
    };
  t.open_depth <- max 0 (t.open_depth - 1)

let instant_on t ?(attrs = []) name =
  record t
    {
      name;
      ts = t.clock () -. t.epoch;
      dur = 0.;
      depth = t.open_depth;
      attrs;
    }

(* ------------------------------------------------- global installation *)

let current : t option ref = ref None
let install t = current := Some t
let uninstall () = current := None
let installed () = !current
let active () = !current <> None

let with_span ?attrs name f =
  match !current with
  | None -> f ()
  | Some t ->
    let sp = span_begin t ?attrs name in
    Fun.protect ~finally:(fun () -> span_end t sp) f

let instant ?attrs name =
  match !current with None -> () | Some t -> instant_on t ?attrs name

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
    let timing =
      if ev.dur = 0. && ev.depth = 0 then
        [ ("ph", Str "i"); ("s", Str "t"); ("ts", micros ev.ts) ]
      else [ ("ph", Str "X"); ("ts", micros ev.ts); ("dur", micros ev.dur) ]
    in
    let args =
      ("depth", Num (float_of_int ev.depth))
      :: List.map (fun (k, v) -> (k, Str v)) ev.attrs
    in
    Obj
      ((("name", Str ev.name) :: ("cat", Str "mdqa") :: timing)
      @ [ ("pid", Num 1.); ("tid", Num 1.); ("args", Obj args) ])
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
