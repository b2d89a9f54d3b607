type token =
  | IDENT of string
  | VAR of string
  | STRING of string
  | INT of int
  | FLOAT of float
  | LPAREN
  | RPAREN
  | COMMA
  | PERIOD
  | TURNSTILE
  | BANG
  | QMARK
  | LBRACE
  | RBRACE
  | ARROW
  | COLON
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | EOF

type pos = { line : int; col : int }

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

(* Identifier continuation characters; '.' is handled separately so a
   trailing period terminates the clause instead of gluing on. *)
let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '/' || c = ':'

let is_digit c = c >= '0' && c <= '9'

(* [next ()] scans from the current offset to the next token.
   Lexical errors are recorded in the collector and skipped (the
   offending character is dropped, an unterminated string yields its
   partial contents), so one pass reports every lexical problem. *)
let stream diags input =
  let n = String.length input in
  let i = ref 0 and line = ref 1 and line_start = ref 0 in
  let pos_at at = { line = !line; col = at - !line_start + 1 } in
  let fail at message =
    let { line; col } = pos_at at in
    Diag.error diags ~line ~col ~code:"E001" message
  in
  (* the token starting at [at] and ending before [stop] *)
  let tok at stop t =
    i := stop;
    (t, pos_at at)
  in
  let rec next () =
    if !i >= n then (EOF, pos_at (max 0 (n - 1)))
    else
      let at = !i in
      let c = input.[at] in
      let eq_next = at + 1 < n && input.[at + 1] = '=' in
      if c = '\n' then begin
        incr line;
        incr i;
        line_start := !i;
        next ()
      end
      else if c = ' ' || c = '\t' || c = '\r' then (incr i; next ())
      else if c = '%' || c = '#' then begin
        while !i < n && input.[!i] <> '\n' do
          incr i
        done;
        next ()
      end
      else if c = '(' then tok at (at + 1) LPAREN
      else if c = ')' then tok at (at + 1) RPAREN
      else if c = ',' then tok at (at + 1) COMMA
      else if c = '!' then
        if eq_next then tok at (at + 2) NEQ else tok at (at + 1) BANG
      else if c = '?' then tok at (at + 1) QMARK
      else if c = '=' then tok at (at + 1) EQ
      else if c = '<' then
        if eq_next then tok at (at + 2) LE else tok at (at + 1) LT
      else if c = '>' then
        if eq_next then tok at (at + 2) GE else tok at (at + 1) GT
      else if c = ':' then
        if at + 1 < n && input.[at + 1] = '-' then tok at (at + 2) TURNSTILE
        else tok at (at + 1) COLON
      else if c = '{' then tok at (at + 1) LBRACE
      else if c = '}' then tok at (at + 1) RBRACE
      else if c = '-' && at + 1 < n && input.[at + 1] = '>' then
        tok at (at + 2) ARROW
      else if c = '"' then begin
        let buf = Buffer.create 16 in
        let j = ref (at + 1) in
        let closed = ref false in
        while (not !closed) && !j < n do
          if input.[!j] = '"' then
            if !j + 1 < n && input.[!j + 1] = '"' then begin
              Buffer.add_char buf '"';
              j := !j + 2
            end
            else begin
              closed := true;
              incr j
            end
          else begin
            Buffer.add_char buf input.[!j];
            incr j
          end
        done;
        if not !closed then fail at "unterminated string";
        tok at !j (STRING (Buffer.contents buf))
      end
      else if is_digit c || (c = '-' && at + 1 < n && is_digit input.[at + 1])
      then begin
        let j = ref at in
        if input.[!j] = '-' then incr j;
        while !j < n && is_digit input.[!j] do
          incr j
        done;
        let is_float =
          !j + 1 < n && input.[!j] = '.' && is_digit input.[!j + 1]
        in
        if is_float then begin
          incr j;
          while !j < n && is_digit input.[!j] do
            incr j
          done
        end;
        let text = String.sub input at (!j - at) in
        tok at !j
          (if is_float then FLOAT (float_of_string text)
           else INT (int_of_string text))
      end
      else if is_ident_start c then begin
        let j = ref at in
        while
          !j < n
          && (is_ident_char input.[!j]
             (* a '.' inside an identifier is kept only when followed by
                another identifier character (e.g. "v1.2"); a '.' at the
                end of a word is the clause terminator *)
             || (input.[!j] = '.' && !j + 1 < n && is_ident_char input.[!j + 1])
             )
        do
          incr j
        done;
        let text = String.sub input at (!j - at) in
        tok at !j
          (match text.[0] with 'A' .. 'Z' | '_' -> VAR text | _ -> IDENT text)
      end
      else if c = '.' then tok at (at + 1) PERIOD
      else begin
        fail at (Printf.sprintf "unexpected character %C" c);
        incr i;
        next ()
      end
  in
  next

let token_to_string = function
  | IDENT s -> s
  | VAR s -> s
  | STRING s -> Printf.sprintf "%S" s
  | INT i -> string_of_int i
  | FLOAT f -> string_of_float f
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | PERIOD -> "."
  | TURNSTILE -> ":-"
  | BANG -> "!"
  | QMARK -> "?"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | ARROW -> "->"
  | COLON -> ":"
  | EQ -> "="
  | NEQ -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | EOF -> "<eof>"
