(** Semantic validation of Datalog± programs — the analysis behind
    [mdqa check] for plain program files.

    Validation composes with the recovering parser
    ({!Parser.parse_statements}): one pass accumulates {e all} lexical,
    syntax and semantic diagnostics.  Semantic checks:

    - arity consistency of every predicate across facts, rules,
      constraints and queries ({!Parser.check_arities}: [E011] per
      clashing statement, each with its source line — where
      [Program.make] would abort on the first);
    - predicates used in rule/constraint/query bodies that have no
      facts and no defining rule ([W040]: a forever-empty extension,
      almost always a typo);
    - the program analysis ({!Analysis.analyse}): [W041] per rule
      breaking weak stickiness, and an [H050] hint naming the first
      engine in scope ({!Analysis.qa_path}: FO rewriting /
      DeterministicWSQAns / budgeted chase, with the reason).

    Statement-level well-formedness (ground facts, safe queries, ...)
    is enforced during parsing and surfaces as [E003]. *)

type checked = {
  parsed : Parser.parsed option;
      (** [Some] iff no error-severity diagnostic was produced; the
          engine must not run otherwise *)
  diags : Diag.t list;  (** in source order *)
}

val check_string : ?file:string -> string -> checked
(** Never raises: every problem is a diagnostic. *)

val check_file : string -> checked
(** @raise Sys_error on I/O failure only. *)

val check_certificate :
  Diag.collector -> Parser.located_statement list -> Program.t -> unit
(** The program analysis as diagnostics ([W041]/[H050]),
    locating violations at their rule's statement when it appears in
    [statements]. *)
