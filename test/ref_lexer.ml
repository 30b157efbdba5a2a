(** The reference lexer: the front end's original token-at-a-time
    lexer, kept for differential testing of the production [Lexer].  It
    builds a [(Token.t * Loc.t) list] with one [Loc.t] per token and
    installs one exception handler per token while recovering; the
    production lexer must agree with it token for token, location for
    location and diagnostic for diagnostic.

    Supports both comment styles, character/string escapes, decimal, octal
    and hexadecimal integer literals (with [u]/[l] suffixes), and floating
    literals.  Preprocessor lines ([#include], [#define], ...) are skipped
    wholesale: the synthetic FLASH corpus is generated post-expansion, with
    macros represented as ordinary calls, mirroring what xg++ saw after
    cpp. *)

exception Error of string * Loc.t

type t = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
}

let create ~file src = { src; file; pos = 0; line = 1; bol = 0 }

let loc lx =
  Loc.make ~file:lx.file ~line:lx.line ~col:(lx.pos - lx.bol + 1)

let error lx msg = raise (Error (msg, loc lx))

let at_end lx = lx.pos >= String.length lx.src
let peek lx = if at_end lx then '\000' else lx.src.[lx.pos]

let peek2 lx =
  if lx.pos + 1 >= String.length lx.src then '\000' else lx.src.[lx.pos + 1]

let advance lx =
  if not (at_end lx) then begin
    if lx.src.[lx.pos] = '\n' then begin
      lx.line <- lx.line + 1;
      lx.bol <- lx.pos + 1
    end;
    lx.pos <- lx.pos + 1
  end

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let rec skip_trivia lx =
  match peek lx with
  | ' ' | '\t' | '\r' | '\n' ->
    advance lx;
    skip_trivia lx
  | '/' when peek2 lx = '/' ->
    while (not (at_end lx)) && peek lx <> '\n' do
      advance lx
    done;
    skip_trivia lx
  | '/' when peek2 lx = '*' ->
    advance lx;
    advance lx;
    let rec close () =
      if at_end lx then error lx "unterminated comment"
      else if peek lx = '*' && peek2 lx = '/' then begin
        advance lx;
        advance lx
      end
      else begin
        advance lx;
        close ()
      end
    in
    close ();
    skip_trivia lx
  | '#' when lx.pos = lx.bol || only_blank_before lx ->
    (* preprocessor line: skip to end of line, honouring continuations *)
    let rec to_eol () =
      if at_end lx then ()
      else if peek lx = '\\' && peek2 lx = '\n' then begin
        advance lx;
        advance lx;
        to_eol ()
      end
      else if peek lx = '\n' then advance lx
      else begin
        advance lx;
        to_eol ()
      end
    in
    to_eol ();
    skip_trivia lx

  | _ -> ()

and only_blank_before lx =
  let rec check i =
    if i >= lx.pos then true
    else
      match lx.src.[i] with ' ' | '\t' -> check (i + 1) | _ -> false
  in
  check lx.bol

let read_escape lx =
  advance lx;
  (* past backslash *)
  let c = peek lx in
  advance lx;
  match c with
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\000'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | c -> c

let read_char lx =
  advance lx;
  (* past opening quote *)
  let c = if peek lx = '\\' then read_escape lx else (
    let c = peek lx in
    advance lx;
    c)
  in
  if peek lx <> '\'' then error lx "unterminated character literal";
  advance lx;
  Token.CHAR c

let read_string lx =
  advance lx;
  (* past opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end lx then error lx "unterminated string literal"
    else
      match peek lx with
      | '"' -> advance lx
      | '\\' -> (
        Buffer.add_char buf (read_escape lx);
        go ())
      | c ->
        Buffer.add_char buf c;
        advance lx;
        go ()
  in
  go ();
  Token.STRING (Buffer.contents buf)

let read_number lx =
  let start = lx.pos in
  let hex = peek lx = '0' && (peek2 lx = 'x' || peek2 lx = 'X') in
  if hex then begin
    advance lx;
    advance lx;
    while is_hex (peek lx) do
      advance lx
    done
  end
  else begin
    while is_digit (peek lx) do
      advance lx
    done
  end;
  let is_float =
    (not hex) && (peek lx = '.' || peek lx = 'e' || peek lx = 'E')
  in
  if is_float then begin
    if peek lx = '.' then begin
      advance lx;
      while is_digit (peek lx) do
        advance lx
      done
    end;
    if peek lx = 'e' || peek lx = 'E' then begin
      advance lx;
      if peek lx = '+' || peek lx = '-' then advance lx;
      while is_digit (peek lx) do
        advance lx
      done
    end;
    if peek lx = 'f' || peek lx = 'F' then advance lx;
    let text = String.sub lx.src start (lx.pos - start) in
    let numeric =
      if String.length text > 0 && (text.[String.length text - 1] = 'f'
                                   || text.[String.length text - 1] = 'F')
      then String.sub text 0 (String.length text - 1)
      else text
    in
    let value =
      try float_of_string numeric
      with _ -> error lx (Printf.sprintf "bad float literal %S" text)
    in
    Token.FLOAT (value, text)
  end
  else begin
    (* integer suffixes *)
    while
      match peek lx with 'u' | 'U' | 'l' | 'L' -> true | _ -> false
    do
      advance lx
    done;
    let text = String.sub lx.src start (lx.pos - start) in
    let digits =
      let n = ref (String.length text) in
      while
        !n > 0
        && match text.[!n - 1] with 'u' | 'U' | 'l' | 'L' -> true | _ -> false
      do
        decr n
      done;
      String.sub text 0 !n
    in
    (* a leading 0 makes the literal octal, as in C; [Int64.of_string]
       would read it as decimal *)
    let digits =
      if (not hex) && String.length digits > 1 && digits.[0] = '0' then
        "0o" ^ String.sub digits 1 (String.length digits - 1)
      else digits
    in
    let value =
      try Int64.of_string digits
      with _ -> error lx (Printf.sprintf "bad integer literal %S" text)
    in
    Token.INT (value, text)
  end

let read_ident lx =
  let start = lx.pos in
  while is_ident_char (peek lx) do
    advance lx
  done;
  let s = String.sub lx.src start (lx.pos - start) in
  match List.assoc_opt s Token.keyword_table with
  | Some kw -> Token.of_kind kw
  | None -> Token.IDENT (Symtab.canon s)

(** Read the next token, returning it with the location of its first
    character. *)
let next lx : Token.t * Loc.t =
  skip_trivia lx;
  let l = loc lx in
  if at_end lx then (Token.EOF, l)
  else
    let tok =
      match peek lx with
      | c when is_ident_start c -> read_ident lx
      | c when is_digit c -> read_number lx
      | '\'' -> read_char lx
      | '"' -> read_string lx
      | c -> (
        let op2 tok =
          advance lx;
          advance lx;
          tok
        in
        let op1 tok =
          advance lx;
          tok
        in
        match (c, peek2 lx) with
        | '-', '>' -> op2 Token.ARROW
        | '+', '+' -> op2 Token.PLUSPLUS
        | '-', '-' -> op2 Token.MINUSMINUS
        | '+', '=' -> op2 Token.PLUSEQ
        | '-', '=' -> op2 Token.MINUSEQ
        | '*', '=' -> op2 Token.STAREQ
        | '/', '=' -> op2 Token.SLASHEQ
        | '%', '=' -> op2 Token.PERCENTEQ
        | '&', '=' -> op2 Token.AMPEQ
        | '|', '=' -> op2 Token.PIPEEQ
        | '^', '=' -> op2 Token.CARETEQ
        | '&', '&' -> op2 Token.AMPAMP
        | '|', '|' -> op2 Token.PIPEPIPE
        | '=', '=' -> op2 Token.EQEQ
        | '!', '=' -> op2 Token.BANGEQ
        | '<', '=' -> op2 Token.LE
        | '>', '=' -> op2 Token.GE
        | '<', '<' ->
          advance lx;
          advance lx;
          if peek lx = '=' then op1 Token.LSHIFTEQ else Token.LSHIFT
        | '>', '>' ->
          advance lx;
          advance lx;
          if peek lx = '=' then op1 Token.RSHIFTEQ else Token.RSHIFT
        | '.', '.' when lx.pos + 2 < String.length lx.src
                        && lx.src.[lx.pos + 2] = '.' ->
          advance lx;
          advance lx;
          op1 Token.ELLIPSIS
        | '(', _ -> op1 Token.LPAREN
        | ')', _ -> op1 Token.RPAREN
        | '{', _ -> op1 Token.LBRACE
        | '}', _ -> op1 Token.RBRACE
        | '[', _ -> op1 Token.LBRACKET
        | ']', _ -> op1 Token.RBRACKET
        | ';', _ -> op1 Token.SEMI
        | ',', _ -> op1 Token.COMMA
        | '.', _ -> op1 Token.DOT
        | '?', _ -> op1 Token.QUESTION
        | ':', _ -> op1 Token.COLON
        | '+', _ -> op1 Token.PLUS
        | '-', _ -> op1 Token.MINUS
        | '*', _ -> op1 Token.STAR
        | '/', _ -> op1 Token.SLASH
        | '%', _ -> op1 Token.PERCENT
        | '&', _ -> op1 Token.AMP
        | '|', _ -> op1 Token.PIPE
        | '^', _ -> op1 Token.CARET
        | '~', _ -> op1 Token.TILDE
        | '!', _ -> op1 Token.BANG
        | '<', _ -> op1 Token.LT
        | '>', _ -> op1 Token.GT
        | '=', _ -> op1 Token.ASSIGN
        | _ -> error lx (Printf.sprintf "unexpected character %C" c))
    in
    (tok, l)

(* More than this many lexical diagnostics means the input is not C at
   all (a binary splice, say); keep consuming so the token stream still
   ends in EOF, but stop recording. *)
let max_lex_diags = 100

(** Tokenise a whole string, recovering from lexical errors: the
    offending character (or truncated literal) is skipped, a [Diag.t] is
    recorded, and lexing continues.  Always returns an EOF-terminated
    stream; never raises. *)
let tokens_recovering ?(file = "<string>") src :
    (Token.t * Loc.t) list * Diag.t list =
  let lx = create ~file src in
  let diags = ref [] in
  let n_diags = ref 0 in
  let rec go acc =
    match next lx with
    | Token.EOF, l -> (List.rev ((Token.EOF, l) :: acc), List.rev !diags)
    | tok, l -> go ((tok, l) :: acc)
    | exception Error (msg, l) ->
      incr n_diags;
      if !n_diags <= max_lex_diags then
        diags :=
          Diag.make ~checker:"lex" ~loc:l ~func:"<toplevel>" msg :: !diags;
      (* guaranteed progress: [next] raises either at the bad character
         (skip it) or at end of input (the next [next] returns EOF) *)
      advance lx;
      go acc
  in
  go []
