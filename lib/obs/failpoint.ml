type action =
  | Crash
  | Exit of int
  | Hang of float
  | Delay of float
  | Err
  | Off

type trigger = Always | At of int | From of int

type entry = { action : action; trigger : trigger }

exception Injected of string

type site = { mutable entry : entry; mutable count : int }

let table : (string, site) Hashtbl.t = Hashtbl.create 8
let armed = ref false
let registry : Metrics.t option ref = ref None

(* --- spec parsing ----------------------------------------------------- *)

let parse_action s =
  let num what conv part =
    match conv part with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s wants a number, got %S" what part)
  in
  match String.index_opt s ':' with
  | None -> (
    match s with
    | "crash" -> Ok Crash
    | "err" -> Ok Err
    | "off" -> Ok Off
    | other -> Error (Printf.sprintf "unknown failpoint action %S" other))
  | Some i -> (
    let name = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    match name with
    | "exit" -> Result.map (fun c -> Exit c) (num "exit" int_of_string_opt arg)
    | "hang" ->
      Result.map (fun v -> Hang v) (num "hang" float_of_string_opt arg)
    | "delay" ->
      Result.map
        (fun v -> Delay (v /. 1000.))
        (num "delay" float_of_string_opt arg)
    | other -> Error (Printf.sprintf "unknown failpoint action %S" other))

let parse_trigger s =
  if s = "" then Ok Always
  else if s.[0] <> '@' then Error (Printf.sprintf "bad trigger %S" s)
  else
    let body = String.sub s 1 (String.length s - 1) in
    let from = String.length body > 0 && body.[String.length body - 1] = '+' in
    let digits =
      if from then String.sub body 0 (String.length body - 1) else body
    in
    match int_of_string_opt digits with
    | Some n when n >= 1 -> Ok (if from then From n else At n)
    | _ -> Error (Printf.sprintf "bad trigger %S (want @N or @N+, N >= 1)" s)

let parse_entry s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "failpoint entry %S has no '='" s)
  | Some i -> (
    let name = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    if name = "" then Error (Printf.sprintf "failpoint entry %S has no name" s)
    else
      let action_str, trigger_str =
        match String.index_opt rest '@' with
        | None -> (rest, "")
        | Some j ->
          (String.sub rest 0 j, String.sub rest j (String.length rest - j))
      in
      match (parse_action action_str, parse_trigger trigger_str) with
      | Ok action, Ok trigger -> Ok (name, { action; trigger })
      | (Error _ as e), _ | _, (Error _ as e) -> e)

let parse_spec s =
  let parts =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
      match parse_entry p with
      | Ok e -> go (e :: acc) rest
      | Error _ as e -> e)
  in
  go [] parts

(* --- arming ----------------------------------------------------------- *)

let arm name entry =
  (match Hashtbl.find_opt table name with
  | Some site -> site.entry <- entry
  | None -> Hashtbl.add table name { entry; count = 0 });
  armed := true

let arm_spec s =
  match parse_spec s with
  | Error _ as e -> e
  | Ok entries ->
    List.iter (fun (name, e) -> arm name e) entries;
    Ok ()

let arm_env () =
  match Sys.getenv_opt "MDQA_FAILPOINTS" with
  | None | Some "" -> Ok ()
  | Some spec -> arm_spec spec

let disarm_all () =
  Hashtbl.reset table;
  armed := false

(* --- metrics mirroring ------------------------------------------------ *)

let fp_counter m name =
  Metrics.counter m ~help:"failpoint hits, by site name"
    ~labels:[ ("name", name) ]
    "mdqa_failpoint_hits_total"

let attach_metrics m =
  registry := Some m;
  (* backfill hits recorded before the registry existed *)
  Hashtbl.iter
    (fun name site -> if site.count > 0 then Metrics.add (fp_counter m name) site.count)
    table

let count site name =
  site.count <- site.count + 1;
  match !registry with
  | Some m -> Metrics.inc (fp_counter m name)
  | None -> ()

(* --- the site --------------------------------------------------------- *)

(* EINTR-proof sleep: a drain signal must not cut a scripted hang
   short. *)
let sleep_for duration =
  let until = Unix.gettimeofday () +. duration in
  let rec go () =
    let remaining = until -. Unix.gettimeofday () in
    if remaining > 0. then (
      (try Unix.sleepf remaining
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ())
  in
  go ()

let fires trigger n =
  match trigger with Always -> true | At k -> n = k | From k -> n >= k

let perform name = function
  | Off -> ()
  | Delay d -> sleep_for d
  | Hang d -> sleep_for d
  | Err -> raise (Injected name)
  | Exit code -> Unix._exit code
  | Crash -> (
    (try Sys.set_signal Sys.sigabrt Sys.Signal_default
     with Invalid_argument _ | Sys_error _ -> ());
    Unix.kill (Unix.getpid ()) Sys.sigabrt;
    (* kill is asynchronous in principle; never fall through *)
    Unix._exit 134)

let hit name =
  if !armed then
    match Hashtbl.find_opt table name with
    | None -> ()
    | Some site ->
      count site name;
      if fires site.entry.trigger site.count then perform name site.entry.action

let hits () =
  Hashtbl.fold (fun name site acc -> (name, site.count) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
