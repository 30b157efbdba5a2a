(** Hand-written lexer for Clite.

    Supports both comment styles, character/string escapes, decimal, octal
    and hexadecimal integer literals (with [u]/[l] suffixes), and floating
    literals.  Preprocessor lines ([#include], [#define], ...) are skipped
    wholesale: the synthetic FLASH corpus is generated post-expansion, with
    macros represented as ordinary calls, mirroring what xg++ saw after
    cpp.

    One pass over the source fills a structure-of-arrays token buffer:
    int columns for kind, line and column, plus a payload column holding
    the interned id of an identifier or the index of a literal in a side
    array.  Nothing is allocated per token except literals, and no
    [Loc.t] is built until the parser stores one in an AST node.
    Lexical errors are collected in the same pass: the offending
    character (or truncated literal) is skipped and recorded as a [lex]
    diagnostic. *)

type buf = {
  file : string;
  len : int;
  kinds : Token.kind array;
  lines : int array;
  cols : int array;
  payloads : int array;
  lits : Token.t array;
  diags : Diag.t list;
}

(* More than this many lexical diagnostics means the input is not C at
   all (a binary splice, say); keep consuming so the token stream still
   ends in EOF, but stop recording. *)
let max_lex_diags = 100

(* A scanner: the source cursor, the columns under construction and the
   identifier table of one [lex] call. *)
type scanner = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
  mutable n : int;
  mutable k : Token.kind array;
  mutable ln : int array;
  mutable cl : int array;
  mutable pl : int array;
  mutable lit : Token.t array;
  mutable n_lit : int;
  mutable ds : Diag.t list;
  mutable n_ds : int;
  (* identifier table, see [read_ident]: spelling -> kind and payload;
     a power-of-two size, [""] marks a free slot *)
  mutable id_s : string array;
  mutable id_k : Token.kind array;
  mutable id_p : int array;
  mutable id_n : int;
}

(* raised at the error position; the driver records it there, skips one
   character and resumes *)
exception Bad of string

let error msg = raise (Bad msg)

let at_end lx = lx.pos >= String.length lx.src

let peek lx =
  if lx.pos < String.length lx.src then String.unsafe_get lx.src lx.pos
  else '\000'

let peek2 lx =
  if lx.pos + 1 < String.length lx.src then
    String.unsafe_get lx.src (lx.pos + 1)
  else '\000'

let advance lx =
  if lx.pos < String.length lx.src then begin
    if String.unsafe_get lx.src lx.pos = '\n' then begin
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

let only_blank_before lx =
  let rec check i =
    if i >= lx.pos then true
    else
      match lx.src.[i] with ' ' | '\t' -> check (i + 1) | _ -> false
  in
  check lx.bol

let rec skip_trivia lx =
  let src = lx.src in
  let i = ref lx.pos in
  while
    !i < String.length src
    &&
    match String.unsafe_get src !i with
    | ' ' | '\t' | '\r' -> true
    | '\n' ->
      lx.line <- lx.line + 1;
      lx.bol <- !i + 1;
      true
    | _ -> false
  do
    incr i
  done;
  lx.pos <- !i;
  match peek lx with
  | '/' when peek2 lx = '/' ->
    while (not (at_end lx)) && peek lx <> '\n' do
      lx.pos <- lx.pos + 1
    done;
    skip_trivia lx
  | '/' when peek2 lx = '*' ->
    lx.pos <- lx.pos + 2;
    let rec close () =
      if at_end lx then error "unterminated comment"
      else if peek lx = '*' && peek2 lx = '/' then lx.pos <- lx.pos + 2
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

(* ------------------------------------------------------------------ *)
(* The columns                                                         *)
(* ------------------------------------------------------------------ *)

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let push lx kind ~line ~col payload =
  if lx.n = Array.length lx.k then begin
    lx.k <- grow lx.k Token.EOF;
    lx.ln <- grow lx.ln 0;
    lx.cl <- grow lx.cl 0;
    lx.pl <- grow lx.pl 0
  end;
  let i = lx.n in
  lx.k.(i) <- kind;
  lx.ln.(i) <- line;
  lx.cl.(i) <- col;
  lx.pl.(i) <- payload;
  lx.n <- i + 1

(* a literal's payload: its index in the side array *)
let literal lx (tok : Token.t) =
  if lx.n_lit = Array.length lx.lit then lx.lit <- grow lx.lit Token.EOF;
  let i = lx.n_lit in
  lx.lit.(i) <- tok;
  lx.n_lit <- i + 1;
  i

(* ------------------------------------------------------------------ *)
(* Tokens                                                              *)
(* ------------------------------------------------------------------ *)

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
  let c =
    if peek lx = '\\' then read_escape lx
    else
      let c = peek lx in
      advance lx;
      c
  in
  if peek lx <> '\'' then error "unterminated character literal";
  advance lx;
  Token.CHAR c

let read_string lx =
  advance lx;
  (* past opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end lx then error "unterminated string literal"
    else
      match peek lx with
      | '"' -> advance lx
      | '\\' ->
        Buffer.add_char buf (read_escape lx);
        go ()
      | c ->
        Buffer.add_char buf c;
        advance lx;
        go ()
  in
  go ();
  Token.STRING (Buffer.contents buf)

let skip_while lx p =
  while p (peek lx) do
    lx.pos <- lx.pos + 1
  done

let read_number lx =
  let start = lx.pos in
  let hex = peek lx = '0' && (peek2 lx = 'x' || peek2 lx = 'X') in
  if hex then begin
    lx.pos <- lx.pos + 2;
    skip_while lx is_hex
  end
  else skip_while lx is_digit;
  let is_float =
    (not hex) && (peek lx = '.' || peek lx = 'e' || peek lx = 'E')
  in
  if is_float then begin
    if peek lx = '.' then begin
      lx.pos <- lx.pos + 1;
      skip_while lx is_digit
    end;
    if peek lx = 'e' || peek lx = 'E' then begin
      lx.pos <- lx.pos + 1;
      if peek lx = '+' || peek lx = '-' then lx.pos <- lx.pos + 1;
      skip_while lx is_digit
    end;
    let suffixed = peek lx = 'f' || peek lx = 'F' in
    if suffixed then lx.pos <- lx.pos + 1;
    let text = String.sub lx.src start (lx.pos - start) in
    let numeric =
      if suffixed then String.sub text 0 (String.length text - 1) else text
    in
    match float_of_string_opt numeric with
    | Some value -> Token.FLOAT (value, text)
    | None -> error (Printf.sprintf "bad float literal %S" text)
  end
  else begin
    let digits_end = lx.pos in
    skip_while lx (function 'u' | 'U' | 'l' | 'L' -> true | _ -> false);
    let text = String.sub lx.src start (lx.pos - start) in
    let n_digits = digits_end - start in
    (* a leading 0 makes the literal octal, as in C; [Int64.of_string]
       would read it as decimal *)
    let digits =
      if (not hex) && n_digits > 1 && text.[0] = '0' then
        "0o" ^ String.sub text 1 (n_digits - 1)
      else String.sub text 0 n_digits
    in
    match Int64.of_string_opt digits with
    | Some value -> Token.INT (value, text)
    | None -> error (Printf.sprintf "bad integer literal %S" text)
  end

(* Identifiers are interned straight from the source slice: the
   scanner's table, open-addressed on a hash taken while scanning, maps
   each spelling (compared in place) to its kind and payload.  A
   distinct identifier is copied out, looked up in the keyword table and
   interned in {!Symtab} once per file; every other occurrence costs one
   probe and allocates nothing. *)

let rec chars_equal src start s i len =
  i = len
  || String.unsafe_get src (start + i) = String.unsafe_get s i
     && chars_equal src start s (i + 1) len

let slice_equal src start len s =
  String.length s = len && chars_equal src start s 0 len

let hash_string s =
  let h = ref 0 in
  String.iter (fun c -> h := (!h * 31) + Char.code c) s;
  !h

(* insert at the first free slot of [h]'s probe sequence *)
let rec place lx h s kind id =
  let j = h land (Array.length lx.id_s - 1) in
  if String.length lx.id_s.(j) = 0 then begin
    lx.id_s.(j) <- s;
    lx.id_k.(j) <- kind;
    lx.id_p.(j) <- id
  end
  else place lx (j + 1) s kind id

let rehash lx =
  let old_s = lx.id_s and old_k = lx.id_k and old_p = lx.id_p in
  let size = 2 * Array.length old_s in
  lx.id_s <- Array.make size "";
  lx.id_k <- Array.make size (Token.EOF : Token.kind);
  lx.id_p <- Array.make size 0;
  Array.iteri
    (fun j s ->
      if String.length s > 0 then
        place lx (hash_string s) s old_k.(j) old_p.(j))
    old_s

(* the table slot of the identifier at [start, start + len) with hash
   [h]: either the slot holding its spelling, or the free slot where it
   belongs *)
let rec probe lx start len j =
  let j = j land (Array.length lx.id_s - 1) in
  let s = Array.unsafe_get lx.id_s j in
  if String.length s = 0 || slice_equal lx.src start len s then j
  else probe lx start len (j + 1)

let read_ident lx ~start ~line ~col =
  let src = lx.src in
  let n = String.length src in
  let i = ref start and h = ref 0 in
  while !i < n && is_ident_char (String.unsafe_get src !i) do
    h := (!h * 31) + Char.code (String.unsafe_get src !i);
    incr i
  done;
  lx.pos <- !i;
  let len = !i - start in
  let j = probe lx start len !h in
  if String.length (Array.unsafe_get lx.id_s j) > 0 then
    push lx (Array.unsafe_get lx.id_k j) ~line ~col
      (Array.unsafe_get lx.id_p j)
  else begin
    (* first occurrence *)
    let s = String.sub src start len in
    let kind, id, s =
      match Hashtbl.find_opt Token.keywords s with
      | Some kw -> (kw, 0, s)
      | None ->
        let id = Symtab.intern s in
        (Token.IDENT, id, Symtab.name id)
    in
    lx.id_n <- lx.id_n + 1;
    if 2 * lx.id_n > Array.length lx.id_s then rehash lx;
    place lx !h s kind id;
    push lx kind ~line ~col id
  end

let op2 lx (kind : Token.kind) =
  lx.pos <- lx.pos + 2;
  kind

let op1 lx (kind : Token.kind) =
  lx.pos <- lx.pos + 1;
  kind

(* the punctuation and operator token at [lx.pos] *)
let read_op lx c : Token.kind =
  match (c, peek2 lx) with
  | '-', '>' -> op2 lx Token.ARROW
  | '+', '+' -> op2 lx Token.PLUSPLUS
  | '-', '-' -> op2 lx Token.MINUSMINUS
  | '+', '=' -> op2 lx Token.PLUSEQ
  | '-', '=' -> op2 lx Token.MINUSEQ
  | '*', '=' -> op2 lx Token.STAREQ
  | '/', '=' -> op2 lx Token.SLASHEQ
  | '%', '=' -> op2 lx Token.PERCENTEQ
  | '&', '=' -> op2 lx Token.AMPEQ
  | '|', '=' -> op2 lx Token.PIPEEQ
  | '^', '=' -> op2 lx Token.CARETEQ
  | '&', '&' -> op2 lx Token.AMPAMP
  | '|', '|' -> op2 lx Token.PIPEPIPE
  | '=', '=' -> op2 lx Token.EQEQ
  | '!', '=' -> op2 lx Token.BANGEQ
  | '<', '=' -> op2 lx Token.LE
  | '>', '=' -> op2 lx Token.GE
  | '<', '<' ->
    lx.pos <- lx.pos + 2;
    if peek lx = '=' then op1 lx Token.LSHIFTEQ else Token.LSHIFT
  | '>', '>' ->
    lx.pos <- lx.pos + 2;
    if peek lx = '=' then op1 lx Token.RSHIFTEQ else Token.RSHIFT
  | '.', '.'
    when lx.pos + 2 < String.length lx.src && lx.src.[lx.pos + 2] = '.' ->
    lx.pos <- lx.pos + 3;
    Token.ELLIPSIS
  | '(', _ -> op1 lx Token.LPAREN
  | ')', _ -> op1 lx Token.RPAREN
  | '{', _ -> op1 lx Token.LBRACE
  | '}', _ -> op1 lx Token.RBRACE
  | '[', _ -> op1 lx Token.LBRACKET
  | ']', _ -> op1 lx Token.RBRACKET
  | ';', _ -> op1 lx Token.SEMI
  | ',', _ -> op1 lx Token.COMMA
  | '.', _ -> op1 lx Token.DOT
  | '?', _ -> op1 lx Token.QUESTION
  | ':', _ -> op1 lx Token.COLON
  | '+', _ -> op1 lx Token.PLUS
  | '-', _ -> op1 lx Token.MINUS
  | '*', _ -> op1 lx Token.STAR
  | '/', _ -> op1 lx Token.SLASH
  | '%', _ -> op1 lx Token.PERCENT
  | '&', _ -> op1 lx Token.AMP
  | '|', _ -> op1 lx Token.PIPE
  | '^', _ -> op1 lx Token.CARET
  | '~', _ -> op1 lx Token.TILDE
  | '!', _ -> op1 lx Token.BANG
  | '<', _ -> op1 lx Token.LT
  | '>', _ -> op1 lx Token.GT
  | '=', _ -> op1 lx Token.ASSIGN
  | _ -> error (Printf.sprintf "unexpected character %C" c)

(* lex up to and including EOF; raises [Bad] at a malformed token, which
   has then pushed nothing *)
let scan lx =
  let eof = ref false in
  while not !eof do
    skip_trivia lx;
    let start = lx.pos and line = lx.line in
    let col = start - lx.bol + 1 in
    if at_end lx then begin
      push lx Token.EOF ~line ~col 0;
      eof := true
    end
    else
      let c = String.unsafe_get lx.src start in
      if is_ident_start c then read_ident lx ~start ~line ~col
      else
        match c with
        | '0' .. '9' ->
          let tok = read_number lx in
          let kind : Token.kind =
            match tok with Token.INT _ -> INT | _ -> FLOAT
          in
          push lx kind ~line ~col (literal lx tok)
        | '\'' ->
          let tok = read_char lx in
          push lx Token.CHAR ~line ~col (literal lx tok)
        | '"' ->
          let tok = read_string lx in
          push lx Token.STRING ~line ~col (literal lx tok)
        | c -> push lx (read_op lx c) ~line ~col 0
  done

let lex ?(file = "<string>") src : buf =
  (* about one token per three bytes of source: size the columns once,
     so that [push] rarely grows them *)
  let cap = (String.length src / 3) + 16 in
  let lx =
    {
      src;
      pos = 0;
      line = 1;
      bol = 0;
      n = 0;
      k = Array.make cap (Token.EOF : Token.kind);
      ln = Array.make cap 0;
      cl = Array.make cap 0;
      pl = Array.make cap 0;
      lit = Array.make 16 Token.EOF;
      n_lit = 0;
      ds = [];
      n_ds = 0;
      id_s = Array.make 16 "";
      id_k = Array.make 16 (Token.EOF : Token.kind);
      id_p = Array.make 16 0;
      id_n = 0;
    }
  in
  (* one handler per error, not per token: a malformed token is recorded
     where it was detected, one character is skipped (at end of input
     that is a no-op, and the next scan ends in EOF) and scanning
     resumes *)
  let rec run () =
    match scan lx with
    | () -> ()
    | exception Bad msg ->
      lx.n_ds <- lx.n_ds + 1;
      if lx.n_ds <= max_lex_diags then begin
        let loc = Loc.make ~file ~line:lx.line ~col:(lx.pos - lx.bol + 1) in
        lx.ds <- Diag.make ~checker:"lex" ~loc ~func:"<toplevel>" msg :: lx.ds
      end;
      advance lx;
      run ()
  in
  run ();
  {
    file;
    len = lx.n;
    kinds = lx.k;
    lines = lx.ln;
    cols = lx.cl;
    payloads = lx.pl;
    lits = lx.lit;
    diags = List.rev lx.ds;
  }

(* ------------------------------------------------------------------ *)
(* Views                                                               *)
(* ------------------------------------------------------------------ *)

let loc b i = Loc.make ~file:b.file ~line:b.lines.(i) ~col:b.cols.(i)

let token b i : Token.t =
  match b.kinds.(i) with
  | Token.INT | Token.FLOAT | Token.STRING | Token.CHAR ->
    b.lits.(b.payloads.(i))
  | Token.IDENT -> Token.IDENT (Symtab.name b.payloads.(i))
  | k -> Token.of_kind k

let to_list b =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((token b i, loc b i) :: acc)
  in
  go (b.len - 1) []

let tokens_recovering ?file src =
  let b = lex ?file src in
  (to_list b, b.diags)
