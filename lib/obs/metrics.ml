(* Counters, gauges and log2 histograms behind a by-name registry.
   Everything is stdlib-only so the instrumented layers (datalog,
   store, server) pay no new dependencies. *)

type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  mutable hn : int;
  mutable hs : float;
  hb : (int, int ref) Hashtbl.t;
}

type instrument = C of counter | G of gauge | H of histogram

type key = { kname : string; klabels : (string * string) list }

type t = {
  tbl : (key, instrument) Hashtbl.t;
  help : (string, string) Hashtbl.t;
}

let create () = { tbl = Hashtbl.create 64; help = Hashtbl.create 16 }

let key name labels =
  {
    kname = name;
    klabels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels;
  }

let register t ?help ?(labels = []) name mk classify kind =
  let k = key name labels in
  (match help with
  | Some h when not (Hashtbl.mem t.help name) -> Hashtbl.add t.help name h
  | _ -> ());
  match Hashtbl.find_opt t.tbl k with
  | Some i -> (
    match classify i with
    | Some x -> x
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %s already registered as another kind (%s)"
           name kind))
  | None ->
    let x, i = mk () in
    Hashtbl.add t.tbl k i;
    x

let counter t ?help ?labels name =
  register t ?help ?labels name
    (fun () ->
      let c = { c = 0 } in
      (c, C c))
    (function C c -> Some c | _ -> None)
    "counter"

let gauge t ?help ?labels name =
  register t ?help ?labels name
    (fun () ->
      let g = { g = 0. } in
      (g, G g))
    (function G g -> Some g | _ -> None)
    "gauge"

let histogram t ?help ?labels name =
  register t ?help ?labels name
    (fun () ->
      let h = { hn = 0; hs = 0.; hb = Hashtbl.create 8 } in
      (h, H h))
    (function H h -> Some h | _ -> None)
    "histogram"

let inc c = c.c <- c.c + 1

let add c n =
  if n < 0 then invalid_arg "Metrics.add: negative increment";
  c.c <- c.c + n

let counter_value c = c.c
let set g v = g.g <- v

(* Bucket index for [v]: the exponent [e] with 2^(e-1) <= v < 2^e
   (frexp gives v = m * 2^e with m in [0.5, 1)).  Non-positive and
   non-finite-below-zero observations share one sentinel bucket so
   [observe] is total. *)
let sentinel_bucket = min_int

let bucket_of v =
  if v > 0. && Float.is_finite v then snd (Float.frexp v) else sentinel_bucket

let bucket_upper e = if e = sentinel_bucket then 0. else Float.ldexp 1. e

let observe h v =
  h.hn <- h.hn + 1;
  h.hs <- h.hs +. v;
  let b = bucket_of v in
  match Hashtbl.find_opt h.hb b with
  | Some r -> incr r
  | None -> Hashtbl.add h.hb b (ref 1)

(* ------------------------------------------------------------ snapshots *)

type histogram_snapshot = {
  hcount : int;
  hsum : float;
  hbuckets : (int * int) list;
}

type snapshot = {
  counters : ((string * (string * string) list) * int) list;
  gauges : ((string * (string * string) list) * float) list;
  histograms : ((string * (string * string) list) * histogram_snapshot) list;
  shelp : (string * string) list;
}

let compare_key (n1, l1) (n2, l2) =
  match String.compare n1 n2 with 0 -> compare l1 l2 | c -> c

let sort_assoc l = List.sort (fun (k1, _) (k2, _) -> compare_key k1 k2) l

let snapshot t =
  let cs = ref [] and gs = ref [] and hs = ref [] in
  Hashtbl.iter
    (fun k i ->
      let key = (k.kname, k.klabels) in
      match i with
      | C c -> cs := (key, c.c) :: !cs
      | G g -> gs := (key, g.g) :: !gs
      | H h ->
        let buckets =
          Hashtbl.fold (fun e r acc -> (e, !r) :: acc) h.hb []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        hs := (key, { hcount = h.hn; hsum = h.hs; hbuckets = buckets }) :: !hs)
    t.tbl;
  {
    counters = sort_assoc !cs;
    gauges = sort_assoc !gs;
    histograms = sort_assoc !hs;
    shelp =
      Hashtbl.fold (fun n h acc -> (n, h) :: acc) t.help []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

(* Merge two sorted assoc lists, combining values under equal keys.
   Output stays sorted, so merge is order-insensitive on the result. *)
let rec merge_assoc f a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (ka, va) :: ta, (kb, vb) :: tb -> (
    match compare_key ka kb with
    | 0 -> (ka, f va vb) :: merge_assoc f ta tb
    | c when c < 0 -> (ka, va) :: merge_assoc f ta b
    | _ -> (kb, vb) :: merge_assoc f a tb)

let rec merge_buckets a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (ea, ca) :: ta, (eb, cb) :: tb ->
    if ea = eb then (ea, ca + cb) :: merge_buckets ta tb
    else if ea < eb then (ea, ca) :: merge_buckets ta b
    else (eb, cb) :: merge_buckets a tb

let merge_histo a b =
  {
    hcount = a.hcount + b.hcount;
    hsum = a.hsum +. b.hsum;
    hbuckets = merge_buckets a.hbuckets b.hbuckets;
  }

let merge a b =
  {
    counters = merge_assoc ( + ) a.counters b.counters;
    gauges = merge_assoc Float.max a.gauges b.gauges;
    histograms = merge_assoc merge_histo a.histograms b.histograms;
    shelp =
      List.sort_uniq
        (fun (n1, _) (n2, _) -> String.compare n1 n2)
        (a.shelp @ b.shelp);
  }

(* --------------------------------------------------------- expositions *)

let escape_label v =
  let buf = Buffer.create (String.length v + 4) in
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | ch -> Buffer.add_char buf ch)
    v;
  Buffer.contents buf

let label_block ?extra labels =
  let labels = match extra with None -> labels | Some kv -> labels @ [ kv ] in
  match labels with
  | [] -> ""
  | l ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) l)
    ^ "}"

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let to_prometheus s =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let header name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.add typed name ();
      (match List.assoc_opt name s.shelp with
      | Some h -> Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name h)
      | None -> ());
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun ((name, labels), v) ->
      header name "counter";
      Buffer.add_string buf
        (Printf.sprintf "%s%s %d\n" name (label_block labels) v))
    s.counters;
  List.iter
    (fun ((name, labels), v) ->
      header name "gauge";
      Buffer.add_string buf
        (Printf.sprintf "%s%s %s\n" name (label_block labels) (float_str v)))
    s.gauges;
  List.iter
    (fun ((name, labels), h) ->
      header name "histogram";
      let cum = ref 0 in
      List.iter
        (fun (e, n) ->
          cum := !cum + n;
          let le = float_str (bucket_upper e) in
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" name
               (label_block ~extra:("le", le) labels)
               !cum))
        h.hbuckets;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket%s %d\n" name
           (label_block ~extra:("le", "+Inf") labels)
           h.hcount);
      Buffer.add_string buf
        (Printf.sprintf "%s_sum%s %s\n" name (label_block labels)
           (float_str h.hsum));
      Buffer.add_string buf
        (Printf.sprintf "%s_count%s %d\n" name (label_block labels) h.hcount))
    s.histograms;
  Buffer.contents buf

(* ------------------------------------------------------------- lookups *)

let norm_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let counter_total s name =
  List.fold_left
    (fun acc ((n, _), v) -> if String.equal n name then acc + v else acc)
    0 s.counters

let find_gauge s ?(labels = []) name =
  List.assoc_opt (name, norm_labels labels) s.gauges

let find_histogram s ?(labels = []) name =
  List.assoc_opt (name, norm_labels labels) s.histograms
