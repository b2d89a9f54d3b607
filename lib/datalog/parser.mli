(** Recursive-descent parser for the Datalog± surface syntax.

    Statement forms (each terminated by [.]):

    {v
    % comment                      # comment
    p(a, "Tom Waits", 3).          fact (must be ground)
    h(X, Y) :- p(X, Z), q(Z, Y).   TGD; head vars not in the body are
                                   existential; multi-atom heads:
                                   h1(X), h2(X) :- p(X).
    X = Y :- p(X), p(Y).           EGD
    ! :- p(X), q(X), X >= 5.       negative constraint (comparisons ok)
    ?ans(X) :- p(X, Y), Y != b.    named query
    ? :- p(X).                     boolean query
    v}

    Constants are lowercase identifiers, quoted strings or numbers;
    variables start with an uppercase letter or [_].

    There is one parsing loop ({!parse_items}): it resynchronizes on
    ['.'] after an error and accumulates every problem in a
    {!Diag.collector} — the substrate of [mdqa check], for plain
    programs ({!parse_statements}) and for [.mdq] contexts alike.
    {!parse_string} is a fail-fast wrapper over it that raises {!Error}
    with the first error diagnostic. *)

type parsed = {
  program : Program.t;
  queries : Query.t list;  (** in source order *)
}

exception
  Error of { line : int; col : int; code : string; message : string }
(** [code] is the stable diagnostic code ({!Diag.codes}): [E001]
    lexical, [E002] syntax, [E003] statement-level semantic error, or
    whichever code a fail-fast wrapper's first error diagnostic has
    (e.g. [E011], or an [.mdq] validation code). *)

val parse_string : string -> parsed
(** Fail-fast wrapper over {!parse_statements}, {!check_arities} and
    {!program_of_statements}.
    @raise Error with the first error diagnostic they report: syntax
    errors, non-ground facts, unsafe rules, arity clashes. *)

val parse_file : string -> parsed
(** @raise Sys_error on I/O failure, {!Error} as {!parse_string}. *)

val parse_query : string -> Query.t
(** Parse a single query statement (with or without the leading [?]).
    @raise Error ([E002]) if the input is anything but one query. *)

(** {1 Parsing toolkit}

    For layers that extend the surface syntax with their own
    declarations (e.g. the multidimensional context format of
    [Mdqa_context.Md_parser]) while reusing the statement grammar
    above. *)

type state

val peek : state -> Lexer.token * Lexer.pos
(** Current token and its position, without consuming. *)

val peek2 : state -> Lexer.token
(** One token of extra lookahead. *)

val pos : state -> Lexer.pos
(** Position of the current token. *)

val advance : state -> unit
val expect : state -> Lexer.token -> string -> unit

val recover : state -> unit
(** Skip to the next statement boundary: consume up to and including
    the next ['.'], stopping (without consuming) at ['}'] or EOF. *)

val error : state -> string -> 'a
(** @raise Error at the current position. *)

type statement =
  | S_tgd of Tgd.t
  | S_egd of Egd.t
  | S_nc of Nc.t
  | S_query of Query.t

(** {1 Recovering entry points} *)

(** Ground facts never become statement ASTs: the statement parser
    hands each, parsed straight into a tuple, to one buffer of tuples,
    from which both front ends fill relations with {!Program.load}.
    The buffer keeps each fact's position, packed in one int, for the
    diagnostics that locate a fact, and per predicate its first fact
    and whether every fact has that one's arity. *)
module Facts : sig
  type t

  type loc = private int
  (** A fact's position, packed. *)

  val preds : t -> string list
  (** The predicates with facts, in the order of their first facts. *)

  val iter :
    (string -> Mdqa_relational.Tuple.t -> loc -> unit) -> t -> unit
  (** Every fact, duplicates included, newest first.  Facts over one
      predicate share one predicate string. *)

  val pos : loc -> Lexer.pos
end

type located_statement = {
  stmt : statement;
  pos : Lexer.pos;  (** position of the statement's first token *)
}

val parse_items :
  Diag.collector ->
  string ->
  (state -> bool) ->
  located_statement list * Facts.t
(** The one recovering loop over a whole input.  At each item,
    [parse_items diags input extra] first lets [extra] parse one of the
    caller's own declarations (returning [true]); otherwise it parses a
    statement.  Every lexical and syntax error goes to the collector
    instead of raising: an {!Error} raised by [extra] or the statement
    is recorded, and parsing resumes at the next item, after the next
    ['.'] ({!recover}, then one stray ['}'] is skipped) — unless the
    failed item's ['.'] was already consumed.  At least one token is
    consumed per failed item, so the loop terminates.  Returns the
    rules, constraints and queries that did parse, each with its source
    position, and the facts that did.  Rules are named [pred/N], NCs
    [ncN], EGDs [egdN] and anonymous queries [qN], numbered from 1 per
    kind in each run, so one input always gets the same names. *)

val parse_statements :
  Diag.collector -> string -> located_statement list * Facts.t
(** {!parse_items} with no declarations of its own: a plain program. *)

val check_arities :
  declared:(string * int * Lexer.pos) list ->
  Diag.collector ->
  located_statement list ->
  Facts.t ->
  unit
(** One arity table over [declared] [(predicate, arity, position)]
    entries, then over every atom of [statements] and every fact, in
    source order: the first use of a predicate fixes its arity, and
    each later use with another arity is an [E011] at its statement or
    fact.  A buffer whose facts all have the table's arity is checked
    in one comparison.  [.mdq] contexts seed [declared] with their
    category/roll-up predicates and relation declarations; plain
    programs pass [[]]. *)

val program_of_statements :
  Diag.collector -> located_statement list -> Facts.t -> parsed option
(** Assemble parsed statements and facts into a program, the facts
    loaded straight from the buffer into one relation per predicate
    ({!Program.of_facts}).  [None] (with a diagnostic) if assembly
    fails — e.g. inconsistent arities not caught earlier. *)

val fail_fast : 'a option -> Diag.t list -> 'a
(** [fail_fast parsed diags] is the value of [parsed], or, when it is
    [None], raises {!Error} built from the first error diagnostic of
    [diags] (in {!Diag.compare} order): the fail-fast side of a
    recovering front end. *)
