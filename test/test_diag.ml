(* The diagnostics subsystem: golden corpus of malformed inputs, CSV
   error locations, parser recovery, and the no-escaping-exceptions
   property behind [mdqa check].

   Each corpus file under corpus/ embeds its expected report as
   trailing comment lines:

     % EXPECT error E015 @ 5

   and the test asserts that the produced diagnostics — severity, code
   and line, for every severity — match the expectations exactly. *)

open Mdqa_datalog
module R = Mdqa_relational
module Md_parser = Mdqa_context.Md_parser

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus_dir = "corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f ->
         Filename.check_suffix f ".mdq" || Filename.check_suffix f ".dl")
  |> List.map (fun f -> Filename.concat corpus_dir f)

(* "% EXPECT error E015 @ 5" -> ("error", "E015", 5) *)
let expectations text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         match String.index_opt line 'E' with
         | Some _ when String.length line > 9 && String.sub line 0 8 = "% EXPECT"
           -> (
           match
             String.split_on_char ' '
               (String.trim (String.sub line 8 (String.length line - 8)))
           with
           | [ sev; code; "@"; ln ] -> Some (sev, code, int_of_string ln)
           | _ -> Alcotest.failf "malformed EXPECT line: %s" line)
         | _ -> None)

let severity_to_string = function
  | Diag.Error -> "error"
  | Diag.Warning -> "warning"
  | Diag.Hint -> "hint"

let check_diags path text =
  if Filename.check_suffix path ".mdq" then
    (Md_parser.check_string ~file:path text).Md_parser.diags
  else (Validate.check_string ~file:path text).Validate.diags

let test_corpus () =
  let files = corpus_files () in
  Alcotest.(check bool)
    "corpus has at least 12 files" true
    (List.length files >= 12);
  List.iter
    (fun path ->
      let text = read_file path in
      let expected = expectations text in
      if expected = [] then
        Alcotest.failf "%s: no EXPECT annotations" path;
      let got =
        List.map
          (fun (d : Diag.t) ->
            (severity_to_string d.Diag.severity, d.Diag.code,
             d.Diag.span.Diag.line))
          (check_diags path text)
      in
      let show (s, c, l) = Printf.sprintf "%s %s @ %d" s c l in
      Alcotest.(check (list string))
        path
        (List.sort compare (List.map show expected))
        (List.sort compare (List.map show got)))
    files

(* The ISSUE's acceptance bar: one multi-error input must yield at
   least two independent errors in a single pass. *)
let test_multi_error () =
  let text = read_file (Filename.concat corpus_dir "syntax_multi.mdq") in
  let diags = (Md_parser.check_string text).Md_parser.diags in
  let errors =
    List.filter (fun d -> d.Diag.severity = Diag.Error) diags
  in
  Alcotest.(check bool)
    "at least 2 independent errors from one input" true
    (List.length errors >= 2);
  let lines =
    List.sort_uniq compare
      (List.map (fun d -> d.Diag.span.Diag.line) errors)
  in
  Alcotest.(check bool) "errors on distinct lines" true
    (List.length lines >= 2)

let test_corpus_never_raises () =
  List.iter
    (fun path ->
      let text = read_file path in
      (* both checkers must accept any input without raising *)
      ignore (Validate.check_string ~file:path text);
      ignore (Md_parser.check_string ~file:path text))
    (corpus_files ())

let test_examples_clean () =
  List.iter
    (fun path ->
      let { Md_parser.diags; parsed } = Md_parser.check_file path in
      (match parsed with
       | Some _ -> ()
       | None -> Alcotest.failf "%s: did not parse" path);
      List.iter
        (fun (d : Diag.t) ->
          if d.Diag.severity <> Diag.Hint then
            Alcotest.failf "%s: unexpected %s: %s" path
              (severity_to_string d.Diag.severity)
              d.Diag.message)
        diags)
    [ "../examples/hospital.mdq"; "../examples/telecom.mdq" ]

(* parse_string must locate its error at the real declaration line —
   the old behavior was [Error { line = 0; _ }] for every semantic
   failure. *)
let test_error_lines () =
  let check_line input want =
    match Md_parser.parse_string input with
    | _ -> Alcotest.fail "expected Parser.Error"
    | exception Parser.Error { line; _ } ->
      Alcotest.(check int) "error line" want line
  in
  check_line
    "source readings(sensor, value).\nreadings(\"s1\", 17).\ncalib(\"c\").\n"
    3;
  check_line
    "dimension Loc {\n  category Sensor -> Station.\n  member \"x\" in \
     Nowhere.\n}\n"
    3;
  (* arity clashes with a declaration and with a category predicate *)
  check_line "source readings(sensor, value).\nreadings(\"s1\").\n" 2;
  check_line
    "dimension Loc {\n  category Sensor.\n}\nsource r(a).\n\
     r(X) :- sensor(X, Y).\n"
    5

(* --- parser recovery ------------------------------------------------ *)

let test_recovery_counts () =
  let input =
    "p(a).\nq(X).\np(b).\nr(b) & s(c).\np(c).\n?ans(Y) :- t(Z).\np(d).\n"
  in
  let diags = Diag.collector () in
  let statements, facts = Parser.parse_statements diags input in
  (* the 4 good facts survive; the 3 bad statements each produce
     diagnostics *)
  let recovered = ref (List.length statements) in
  Parser.Facts.iter (fun _ _ _ -> incr recovered) facts;
  Alcotest.(check int) "recovered statements" 4 !recovered;
  Alcotest.(check bool) "three or more errors" true
    (Diag.error_count diags >= 3)

let test_recovery_no_progress_loop () =
  (* pathological inputs must terminate (forced single-token advance) *)
  List.iter
    (fun input ->
      ignore (Md_parser.check_string input);
      ignore (Validate.check_string input))
    [ "}"; "}}}}"; "."; "...."; "dimension"; "dimension Loc {";
      "dimension Loc { category }"; ":-"; "p("; "\"unterminated" ]

(* The fail-fast entry points are wrappers over the recovering ones:
   they raise the first error diagnostic the checker reports, and
   return what the checker returns. *)
let test_fail_fast_agrees () =
  List.iter
    (fun path ->
      let text = read_file path in
      let first_error =
        List.find_map
          (fun (d : Diag.t) ->
            if d.Diag.severity = Diag.Error then
              Some (d.Diag.code, d.Diag.span.Diag.line, d.Diag.span.Diag.col)
            else None)
          (check_diags path text)
      in
      let raised =
        match
          if Filename.check_suffix path ".mdq" then
            ignore (Md_parser.parse_string text)
          else ignore (Parser.parse_string text)
        with
        | () -> None
        | exception Parser.Error { code; line; col; _ } ->
          Some (code, line, col)
      in
      Alcotest.(check (option (triple string int int))) path first_error raised)
    (corpus_files ())

let test_fail_fast_examples () =
  let files =
    Sys.readdir "../examples" |> Array.to_list |> List.sort compare
    |> List.filter (fun f ->
           Filename.check_suffix f ".mdq" || Filename.check_suffix f ".dl")
  in
  Alcotest.(check bool) "examples found" true (List.length files >= 3);
  List.iter
    (fun f ->
      let path = Filename.concat "../examples" f in
      let text = read_file path in
      let same checked show fail_fast =
        match checked with
        | None -> Alcotest.failf "%s: did not check" path
        | Some p ->
          Alcotest.(check string) path (show p) (show (fail_fast text))
      in
      if Filename.check_suffix f ".mdq" then
        same (Md_parser.check_string text).Md_parser.parsed
          (fun (p : Md_parser.parsed) ->
            Mdqa_context.Md_pretty.context_to_string ~source:p.Md_parser.source
              ~queries:p.Md_parser.queries p.Md_parser.context)
          Md_parser.parse_string
      else
        same (Validate.check_string text).Validate.parsed
          (fun { Parser.program; queries } ->
            String.concat "\n"
              (Pretty.program_to_string program
              :: List.map Pretty.query_to_string queries))
          Parser.parse_string)
    files

(* Declarations interleaved with statements: the query before the
   first dimension, a rule and facts between two relation declarations.
   Rules and queries come back in source order, and the context
   round-trips through Md_pretty.  A context keeps its facts in
   relations (sets), so fact order is checked on the plain-program
   path, which runs the same statement loop. *)
let test_source_order () =
  let text =
    {|?early(P) :- patient_unit("Standard", P).
dimension Hospital {
  category Ward -> Unit.
  member "W1" in Ward -> "Standard".
  member "W2" in Ward -> "Standard".
  member "Standard" in Unit.
}
relation patient_ward(ward in Hospital.Ward, patient).
patient_ward("W2", "bob").
visited(P) :- visits_c(P, D).
patient_unit(U, P) :- patient_ward(W, P), unit_ward(U, W).
patient_ward("W1", "alice").
relation patient_unit(unit in Hospital.Unit, patient).
source visits(patient, day).
visits("bob", "mon").
map visits -> visits_c.
visits("alice", "tue").
quality visits -> visits_q.
visits_q(P, D) :- visits_c(P, D), patient_unit("Standard", P).
?late(D) :- visits_q(P, D).
|}
  in
  let p = Md_parser.parse_string text in
  let heads rules = List.concat_map Tgd.head_preds rules in
  Alcotest.(check (list string)) "dimensional rules" [ "patient_unit" ]
    (heads p.Md_parser.ontology.Mdqa_multidim.Md_ontology.rules);
  Alcotest.(check (list string)) "contextual rules in source order"
    [ "visited"; "visits_q" ]
    (heads p.Md_parser.context.Mdqa_context.Context.rules);
  Alcotest.(check (list string)) "queries in source order" [ "early"; "late" ]
    (List.map (fun q -> q.Query.name) p.Md_parser.queries);
  let tuples inst rel =
    match R.Instance.find inst rel with
    | Some r ->
      List.map (Format.asprintf "%a" R.Tuple.pp) (R.Relation.to_list r)
    | None -> []
  in
  Alcotest.(check (list string)) "ontology facts"
    [ "(W1, alice)"; "(W2, bob)" ]
    (tuples p.Md_parser.ontology.Mdqa_multidim.Md_ontology.data "patient_ward");
  Alcotest.(check (list string)) "source facts" [ "(alice, tue)"; "(bob, mon)" ]
    (tuples p.Md_parser.source "visits");
  let print (p : Md_parser.parsed) =
    Mdqa_context.Md_pretty.context_to_string ~source:p.Md_parser.source
      ~queries:p.Md_parser.queries p.Md_parser.context
  in
  Alcotest.(check string) "Md_pretty round trip" (print p)
    (print (Md_parser.parse_string (print p)));
  let { Parser.program; queries } =
    Parser.parse_string
      {|?early(X) :- q(X).
p(c).
q(X) :- p(X).
p(a).
?late(X) :- p(X).
p(b).
r(X) :- q(X).
|}
  in
  Alcotest.(check (list string)) "facts in source order"
    [ "p(c)"; "p(a)"; "p(b)" ]
    (List.map (Format.asprintf "%a" Atom.pp) program.Program.facts);
  Alcotest.(check (list string)) "rules in source order" [ "q"; "r" ]
    (heads program.Program.tgds);
  Alcotest.(check (list string)) "queries in source order" [ "early"; "late" ]
    (List.map (fun q -> q.Query.name) queries)

(* --- CSV ------------------------------------------------------------ *)

let test_csv_row_col () =
  match
    R.Csv_io.relation_of_string_result ~name:"t" "a,b\n\nx\ny,z,w\nu,v\n"
  with
  | Ok _ -> Alcotest.fail "expected ragged-row errors"
  | Error errs ->
    let got =
      List.map (fun (e : R.Csv_io.error) -> (e.R.Csv_io.row, e.R.Csv_io.col)) errs
    in
    (* rows are absolute file lines (header = line 1, blank line
       skipped); col is the first offending cell *)
    Alcotest.(check (list (pair int int))) "error locations"
      [ (3, 2); (4, 3) ] got

let test_csv_empty () =
  (match R.Csv_io.relation_of_string_result ~name:"t" "" with
   | Ok _ -> Alcotest.fail "expected empty-input error"
   | Error [ e ] -> Alcotest.(check int) "row" 1 e.R.Csv_io.row
   | Error _ -> Alcotest.fail "expected exactly one error");
  match R.Csv_io.relation_of_string_result ~name:"t" "a,b\nx\n" with
  | Ok _ -> Alcotest.fail "expected a ragged-row error"
  | Error errs -> Alcotest.(check int) "one ragged row" 1 (List.length errs)

let test_csv_ok_roundtrip () =
  match R.Csv_io.relation_of_string_result ~name:"t" "a,b\n1,x\n2,y\n" with
  | Error _ -> Alcotest.fail "clean CSV must load"
  | Ok r -> Alcotest.(check int) "rows" 2 (R.Relation.cardinal r)

(* --- collector / presentation --------------------------------------- *)

let test_exit_codes () =
  let e = Diag.make Diag.Error ~code:"E002" "boom" in
  let w = Diag.make Diag.Warning ~code:"W040" "hmm" in
  let h = Diag.make Diag.Hint ~code:"H050" "fyi" in
  Alcotest.(check int) "clean" 0 (Diag.exit_code []);
  Alcotest.(check int) "hints only" 0 (Diag.exit_code [ h ]);
  Alcotest.(check int) "warnings" 2 (Diag.exit_code [ h; w ]);
  Alcotest.(check int) "errors win" 1 (Diag.exit_code [ w; e ])

let test_never_located_at_zero () =
  let d = Diag.make ~line:0 Diag.Error ~code:"E002" "x" in
  Alcotest.(check int) "line clamped to 1" 1 d.Diag.span.Diag.line;
  (* and across the whole corpus *)
  List.iter
    (fun path ->
      let text = read_file path in
      List.iter
        (fun (d : Diag.t) ->
          if d.Diag.span.Diag.line < 1 then
            Alcotest.failf "%s: diagnostic at line %d" path
              d.Diag.span.Diag.line)
        (check_diags path text))
    (corpus_files ())

let test_json_report () =
  let text = read_file (Filename.concat corpus_dir "syntax_multi.mdq") in
  let diags = (Md_parser.check_string ~file:"f.mdq" text).Md_parser.diags in
  let json = Mdqa_obs.Jsonl.to_string (Diag.to_json ~file:"f.mdq" diags) in
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec go i =
      i + n <= m && (String.sub json i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "json contains %s" sub) true
        (contains sub))
    [ "\"file\":\"f.mdq\""; "\"diagnostics\":["; "\"severity\":\"error\"";
      "\"code\":\"E002\""; "\"line\":2" ]

(* No input may crash the checkers: random fuzzing over a token-ish
   alphabet. *)
let test_fuzz_never_raises =
  QCheck.Test.make ~count:300 ~name:"checkers never raise"
    QCheck.(
      string_gen_of_size (Gen.int_range 0 60)
        (Gen.oneof
           [ Gen.printable;
             Gen.oneofl
               [ '('; ')'; '{'; '}'; '.'; ','; ':'; '-'; '?'; '!'; '"';
                 '%'; '>'; '='; '\n'; ' ' ] ]))
    (fun s ->
      ignore (Validate.check_string s);
      ignore (Mdqa_context.Md_parser.check_string s);
      true)

let suites =
  [ ( "diag.corpus",
      [ Alcotest.test_case "golden corpus" `Quick test_corpus;
        Alcotest.test_case "multi-error accumulation" `Quick test_multi_error;
        Alcotest.test_case "no escaping exceptions" `Quick
          test_corpus_never_raises;
        Alcotest.test_case "examples are clean" `Quick test_examples_clean;
        Alcotest.test_case "semantic errors carry real lines" `Quick
          test_error_lines ] );
    ( "diag.recovery",
      [ Alcotest.test_case "statement resync counts" `Quick
          test_recovery_counts;
        Alcotest.test_case "pathological inputs terminate" `Quick
          test_recovery_no_progress_loop;
        Alcotest.test_case "fail-fast agrees with recovering" `Quick
          test_fail_fast_agrees;
        Alcotest.test_case "fail-fast returns the checked examples" `Quick
          test_fail_fast_examples;
        Alcotest.test_case "source order survives" `Quick test_source_order ] );
    ( "diag.csv",
      [ Alcotest.test_case "row and column numbers" `Quick test_csv_row_col;
        Alcotest.test_case "empty input" `Quick test_csv_empty;
        Alcotest.test_case "clean CSV loads" `Quick test_csv_ok_roundtrip ] );
    ( "diag.presentation",
      [ Alcotest.test_case "exit-code convention" `Quick test_exit_codes;
        Alcotest.test_case "never located at line 0" `Quick
          test_never_located_at_zero;
        Alcotest.test_case "json report" `Quick test_json_report;
        QCheck_alcotest.to_alcotest test_fuzz_never_raises ] ) ]
