type severity = Error | Warning | Hint

type span = { file : string option; line : int; col : int }

type t = {
  code : string;
  severity : severity;
  span : span;
  message : string;
}

(* Retired codes stay out of the registry and are never reused: E029
   worker-crashed, W049 watchdog-kill and H054 workers-unavailable
   belonged to the forked worker pool of [mdqa serve], which is gone. *)
let registry =
  [ ("E001", "lexical-error");
    ("E002", "syntax-error");
    ("E003", "invalid-statement");
    ("E010", "duplicate-declaration");
    ("E011", "arity-mismatch");
    ("E012", "unknown-predicate");
    ("E013", "undeclared-fact-predicate");
    ("E014", "invalid-dimension");
    ("E015", "unknown-category");
    ("E016", "duplicate-member");
    ("E017", "invalid-link");
    ("E018", "invalid-relation");
    ("E019", "invalid-rule");
    ("E020", "non-dimensional-constraint");
    ("E021", "dangling-wiring");
    ("E022", "csv-error");
    ("E023", "store-corrupt");
    ("E024", "invalid-request");
    ("E025", "oversized-request");
    ("E026", "request-timeout");
    ("E027", "request-crashed");
    ("E028", "repair-failed");
    ("E030", "replication-divergence");
    ("E031", "replication-refused");
    ("E032", "unrepairable-store");
    ("E033", "engine-out-of-scope");
    ("W040", "undefined-predicate");
    ("W041", "not-weakly-sticky");
    ("W042", "quality-version-undefined");
    ("W043", "non-strict-hierarchy");
    ("W044", "non-homogeneous-hierarchy");
    ("W045", "referential-violation");
    ("W046", "store-truncated");
    ("W047", "overload-shed");
    ("W048", "breaker-open");
    ("W050", "stale-read");
    ("W051", "salvaged-from-generation");
    ("W052", "journal-records-dropped");
    ("H050", "qa-path");
    ("H051", "unused-map-target");
    ("H052", "stale-checkpoint-temp");
    ("H053", "server-drain");
    ("H055", "promoted");
    ("H056", "quarantined-file") ]

let describe code = List.assoc_opt code registry
let codes = registry

let make ?file ?(line = 1) ?(col = 0) severity ~code message =
  let line = max 1 line and col = max 0 col in
  { code; severity; span = { file; line; col }; message }

let severity_rank = function Error -> 0 | Warning -> 1 | Hint -> 2

let compare a b =
  let c = Option.compare String.compare a.span.file b.span.file in
  if c <> 0 then c
  else
    let c = Int.compare a.span.line b.span.line in
    if c <> 0 then c
    else
      let c = Int.compare a.span.col b.span.col in
      if c <> 0 then c
      else
        let c =
          Int.compare (severity_rank a.severity) (severity_rank b.severity)
        in
        if c <> 0 then c
        else
          let c = String.compare a.code b.code in
          if c <> 0 then c else String.compare a.message b.message

type collector = { default_file : string option; mutable rev : t list }

let collector ?file () = { default_file = file; rev = [] }
let add c d = c.rev <- d :: c.rev

let add_sev c severity ?file ?line ?col ~code message =
  let file = match file with Some _ as f -> f | None -> c.default_file in
  add c (make ?file ?line ?col severity ~code message)

let error c ?file ?line ?col ~code message =
  add_sev c Error ?file ?line ?col ~code message

let warning c ?file ?line ?col ~code message =
  add_sev c Warning ?file ?line ?col ~code message

let hint c ?file ?line ?col ~code message =
  add_sev c Hint ?file ?line ?col ~code message

let errorf c ?file ?line ?col ~code fmt =
  Printf.ksprintf (error c ?file ?line ?col ~code) fmt

let warningf c ?file ?line ?col ~code fmt =
  Printf.ksprintf (warning c ?file ?line ?col ~code) fmt

let hintf c ?file ?line ?col ~code fmt =
  Printf.ksprintf (hint c ?file ?line ?col ~code) fmt

let to_list c = List.sort_uniq compare (List.rev c.rev)

let error_count c =
  List.length (List.filter (fun d -> d.severity = Error) (to_list c))
let has_errors c = List.exists (fun d -> d.severity = Error) c.rev

let exit_code ds =
  if List.exists (fun d -> d.severity = Error) ds then 1
  else if List.exists (fun d -> d.severity = Warning) ds then 2
  else 0

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

let pp ppf d =
  (match d.span.file with
   | Some f -> Format.fprintf ppf "%s:" f
   | None -> ());
  Format.fprintf ppf "%d:" d.span.line;
  if d.span.col > 0 then Format.fprintf ppf "%d:" d.span.col;
  Format.fprintf ppf " %s %s" (severity_to_string d.severity) d.code;
  (match describe d.code with
   | Some m -> Format.fprintf ppf " (%s)" m
   | None -> ());
  Format.fprintf ppf ": %s" d.message

let pp_summary ppf ds =
  let n sev = List.length (List.filter (fun d -> d.severity = sev) ds) in
  let plural k = if k = 1 then "" else "s" in
  let e = n Error and w = n Warning and h = n Hint in
  if e = 0 && w = 0 && h = 0 then Format.fprintf ppf "no diagnostics"
  else begin
    let parts =
      List.filter_map
        (fun (k, what) ->
          if k = 0 then None
          else Some (Printf.sprintf "%d %s%s" k what (plural k)))
        [ (e, "error"); (w, "warning"); (h, "hint") ]
    in
    Format.fprintf ppf "%s" (String.concat ", " parts)
  end

let to_json ?file ds =
  let open Mdqa_obs.Jsonl in
  let int i = Num (float_of_int i) in
  let opt key = function Some v -> [ (key, Str v) ] | None -> [] in
  let n sev = int (List.length (List.filter (fun d -> d.severity = sev) ds)) in
  let diag d =
    Obj
      ([ ("severity", Str (severity_to_string d.severity)); ("code", Str d.code) ]
      @ opt "mnemonic" (describe d.code)
      @ opt "file" d.span.file
      @ [ ("line", int d.span.line); ("col", int d.span.col);
          ("message", Str d.message) ])
  in
  Obj
    (opt "file" file
    @ [ ("errors", n Error); ("warnings", n Warning); ("hints", n Hint);
        ("diagnostics", List (List.map diag ds)) ])
