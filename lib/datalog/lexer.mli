(** Hand-rolled lexer for the Datalog± surface syntax.

    Lexical classes:
    - variables: identifiers starting with an uppercase letter or [_];
    - symbols: identifiers starting with a lowercase letter (may
      contain letters, digits, [_], [-], [/], [:], [.] after the first
      character when not terminating the clause), or double-quoted
      strings;
    - numbers: integer and float literals;
    - punctuation: [( ) , . ! ? :- { } -> :] and comparison
      operators [= != < <= > >=];
    - comments: from [%] or [#] to end of line. *)

type token =
  | IDENT of string  (** lowercase-initial identifier *)
  | VAR of string  (** uppercase-initial identifier or [_...] *)
  | STRING of string
  | INT of int
  | FLOAT of float
  | LPAREN
  | RPAREN
  | COMMA
  | PERIOD
  | TURNSTILE  (** [:-] *)
  | BANG  (** [!] *)
  | QMARK  (** [?] *)
  | LBRACE  (** [{] *)
  | RBRACE  (** [}] *)
  | ARROW  (** [->] *)
  | COLON  (** [:] not followed by [-] *)
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | EOF

type pos = { line : int; col : int }  (** both 1-based *)

val stream : Diag.collector -> string -> unit -> token * pos
(** [stream diags input] is a function returning the next token of
    [input] and the position of its first character at each call, then
    [EOF] forever.  Lexical errors (unrecognized characters,
    unterminated strings) are recorded as [E001] diagnostics and
    skipped, so one pass reports them all.  Tokens are produced on
    demand, so a parser holds only its lookahead, never the whole
    token list. *)

val token_to_string : token -> string
