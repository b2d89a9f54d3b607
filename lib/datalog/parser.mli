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
(** Parse a single query statement (with or without the leading [?])
    through {!parse_statements} and {!check_arities}, building no
    program.
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
    reads each into a tuple and hands it to a {!sink}.  A front end's
    sink, {!add_fact}, writes it into its predicate's relation at once,
    keeping no record or position per fact.  The diagnostics that
    point at one fact ([E011] on a fact, [E013], [W045]) read the facts
    again ({!replay_facts}), so only an input that gets one of them
    parses twice. *)

type sink = string -> Mdqa_relational.Tuple.t -> Lexer.pos -> unit
(** Takes each fact's predicate, tuple and position, in source order. *)

type facts
(** The facts of one parse: per predicate, its relation and its first
    fact (position, arity, and whether every later fact had that
    arity). *)

val facts : (sink -> unit) -> facts
(** An empty store whose facts [replay] hands out again, by running the
    same recovering loop over the same input with a throwaway
    collector. *)

val add_fact : facts -> sink
(** Adds a fact to its predicate's relation ({!Program.schema} of the
    first fact's arity), 4,096 tuples at a time: one
    {!Mdqa_relational.Relation.of_tuples} and one
    {!Mdqa_relational.Relation.union}.  A fact of another arity is left
    out, for {!check_arities} to report. *)

val fact_relations : facts -> Mdqa_relational.Relation.t list
(** Each predicate's relation, holding every fact added so far, in the
    order of the predicates' first facts. *)

val replay_facts : facts -> sink -> unit
(** Every fact again, with its position. *)

type located_statement = {
  stmt : statement;
  pos : Lexer.pos;  (** position of the statement's first token *)
}

val parse_items :
  ?sym:(string -> Mdqa_relational.Value.t) ->
  Diag.collector ->
  string ->
  (state -> bool) ->
  sink ->
  located_statement list
(** The one recovering loop over a whole input.  At each item,
    [parse_items diags input extra fact] first lets [extra] parse one of
    the caller's own declarations (returning [true]); otherwise it parses a
    statement.  Every lexical and syntax error goes to the collector
    instead of raising: an {!Error} raised by [extra] or the statement
    is recorded, and parsing resumes at the next item, after the next
    ['.'] ({!recover}, then one stray ['}'] is skipped) — unless the
    failed item's ['.'] was already consumed.  At least one token is
    consumed per failed item, so the loop terminates.  Returns the
    rules, constraints and queries that did parse, each with its source
    position; each fact that did goes to [fact].  Rules are named
    [pred/N], NCs [ncN], EGDs [egdN] and anonymous queries [qN],
    numbered from 1 per kind in each run, so one input always gets the
    same names.  [sym]
    (default: a new {!Mdqa_relational.Value.interner}) makes symbols. *)

val parse_statements :
  Diag.collector -> string -> located_statement list * facts
(** {!parse_items} with no declarations of its own, its facts in a new
    store: a plain program. *)

val check_arities :
  declared:(string * int * Lexer.pos) list ->
  Diag.collector ->
  located_statement list ->
  facts ->
  unit
(** One arity table over [declared] [(predicate, arity, position)]
    entries, then over every atom of [statements] and every fact, in
    source order: the first use of a predicate fixes its arity, and
    each later use with another arity is an [E011] at its statement or
    fact.  A predicate whose facts all have the table's arity is
    checked in one comparison; the facts are read again
    ({!replay_facts}) only when one clashes.  [.mdq] contexts seed
    [declared] with their category/roll-up predicates and relation
    declarations; plain programs pass [[]]. *)

val program_of_statements :
  Diag.collector -> located_statement list -> facts -> parsed option
(** Assemble parsed statements and facts into a program, whose facts
    are the store's relations as they are ({!Program.of_relations}).
    [None] (with a diagnostic) if assembly fails — e.g. inconsistent
    arities not caught earlier. *)

val fail_fast : 'a option -> Diag.t list -> 'a
(** [fail_fast parsed diags] is the value of [parsed], or, when it is
    [None], raises {!Error} built from the first error diagnostic of
    [diags] (in {!Diag.compare} order): the fail-fast side of a
    recovering front end. *)
