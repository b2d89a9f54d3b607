(** Located, severity-tagged diagnostics with multi-error accumulation.

    The front door of the pipeline (lexing, parsing, declaration
    assembly, semantic validation, CSV loading) reports problems as
    {!t} values pushed into a {!collector} instead of aborting on the
    first [failwith].  One run of [mdqa check] therefore surfaces
    {e every} problem in an input, each with a stable code and a real
    source location.

    Severity conventions:
    - [Error]: the input is ill-formed; the engine must not run on it.
    - [Warning]: the input is accepted but falls outside a guarantee
      (e.g. a non-strict hierarchy, a program outside weakly-sticky
      Datalog±) — results may be partial or intractable.
    - [Hint]: advisory only (e.g. which QA algorithm is justified).

    Stable codes (see {!describe}):
    - [E001] lexical-error, [E002] syntax-error, [E003]
      invalid-statement;
    - [E010] duplicate-declaration, [E011] arity-mismatch, [E012]
      unknown-predicate, [E013] undeclared-fact-predicate;
    - [E014] invalid-dimension, [E015] unknown-category, [E016]
      duplicate-member, [E017] invalid-link, [E018] invalid-relation;
    - [E019] invalid-rule, [E020] non-dimensional-constraint, [E021]
      dangling-wiring, [E022] csv-error, [E023] store-corrupt;
    - [E024] invalid-request, [E025] oversized-request, [E026]
      request-timeout, [E027] request-crashed, [E028] repair-failed
      (the server front door and repair pipeline);
    - [E030] replication-divergence, [E031] replication-refused (the
      primary/standby replication layer);
    - [E032] unrepairable-store (the {!Mdqa_store.Fsck} salvage chain
      exhausted every stage);
    - [E033] engine-out-of-scope (a query engine refused for a program
      outside its scope, {!Answer.answer});
    - [W040] undefined-predicate, [W041] not-weakly-sticky, [W042]
      quality-version-undefined, [W043] non-strict-hierarchy, [W044]
      non-homogeneous-hierarchy, [W045] referential-violation, [W046]
      store-truncated, [W047] overload-shed, [W048] breaker-open,
      [W050] stale-read, [W051] salvaged-from-generation, [W052]
      journal-records-dropped;
    - [H050] qa-path, [H051] unused-map-target, [H052]
      stale-checkpoint-temp, [H053] server-drain, [H055] promoted,
      [H056] quarantined-file.

    Retired, never reused: [E029] worker-crashed, [W049] watchdog-kill
    and [H054] workers-unavailable, the codes of the forked worker pool
    [mdqa serve] once had. *)

type severity = Error | Warning | Hint

type span = {
  file : string option;
  line : int;  (** 1-based; never 0 — every diagnostic is located *)
  col : int;  (** 1-based; 0 when only the line is known *)
}

type t = {
  code : string;  (** stable code, e.g. ["E012"] *)
  severity : severity;
  span : span;
  message : string;
}

val make :
  ?file:string -> ?line:int -> ?col:int -> severity -> code:string ->
  string -> t
(** [make severity ~code message].  [line] defaults to 1 and is clamped
    to ≥ 1, so a diagnostic can never be location-less. *)

val describe : string -> string option
(** Short mnemonic for a stable code ([describe "E012" =
    Some "unknown-predicate"]). *)

val codes : (string * string) list
(** The full code registry, sorted: [(code, mnemonic)]. *)

val compare : t -> t -> int
(** Source order: file, line, column, then severity (errors first) and
    code. *)

(** {1 Accumulation} *)

type collector

val collector : ?file:string -> unit -> collector
(** A fresh, empty collector.  [file] is stamped on every diagnostic
    added through the helpers below (an explicit [?file] wins). *)

val error :
  collector -> ?file:string -> ?line:int -> ?col:int -> code:string ->
  string -> unit

val errorf :
  collector -> ?file:string -> ?line:int -> ?col:int -> code:string ->
  ('a, unit, string, unit) format4 -> 'a

val warningf :
  collector -> ?file:string -> ?line:int -> ?col:int -> code:string ->
  ('a, unit, string, unit) format4 -> 'a

val hintf :
  collector -> ?file:string -> ?line:int -> ?col:int -> code:string ->
  ('a, unit, string, unit) format4 -> 'a

val to_list : collector -> t list
(** All accumulated diagnostics in source order ({!compare}),
    deduplicated. *)

val error_count : collector -> int
val has_errors : collector -> bool

(** {1 Presentation} *)

val exit_code : t list -> int
(** The CLI convention: [1] if any error, [2] if any warning (but no
    error), [0] otherwise (clean or hints only). *)

val pp : Format.formatter -> t -> unit
(** [FILE:LINE:COL: error E012 (unknown-predicate): message] — the
    grep-able one-diagnostic-per-line format. *)

val pp_summary : Format.formatter -> t list -> unit
(** ["3 errors, 1 warning"]-style one-line summary. *)

val to_json : ?file:string -> t list -> Mdqa_obs.Jsonl.t
(** The whole report as one JSON object:
    [{"file": ..., "errors": N, "warnings": N, "hints": N,
      "diagnostics": [{"severity": "error", "code": "E012",
      "mnemonic": "unknown-predicate", "line": L, "col": C,
      "file": ..., "message": ...}, ...]}]. *)
