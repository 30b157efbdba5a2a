(** Hand-written lexer for Clite.

    Both comment styles, character/string escapes, decimal/octal/hex
    integer literals with [u]/[l] suffixes, floating literals.
    Preprocessor lines are skipped wholesale: the corpus is generated
    post-expansion, with macros as ordinary calls, mirroring what xg++
    saw after cpp. *)

(** One file's tokens as a structure of arrays: token [i] (for
    [0 <= i < len]) has kind [kinds.(i)] and 1-based position
    [lines.(i)]:[cols.(i)].  [payloads.(i)] is the
    {!Symtab} id of an [IDENT], the index into [lits] of an [INT],
    [FLOAT], [STRING] or [CHAR] token, and 0 otherwise.  The columns may
    be longer than [len]; the last token is always [EOF].  Read-only. *)
type buf = private {
  file : string;
  len : int;
  kinds : Token.kind array;
  lines : int array;
  cols : int array;
  payloads : int array;
  lits : Token.t array;
  diags : Diag.t list;
      (** the [lex] diagnostics, in source order, at most 100: a
          malformed character or truncated literal is recorded where it
          was detected, one character is skipped there, and lexing
          resumes *)
}

val lex : ?file:string -> string -> buf
(** the whole input in one pass; never raises *)

val loc : buf -> int -> Loc.t
(** a fresh [Loc.t] for token [i] *)

val token : buf -> int -> Token.t
(** token [i] with its payload *)

val tokens_recovering :
  ?file:string -> string -> (Token.t * Loc.t) list * Diag.t list
(** list view of {!lex}, ending with [EOF], and its diagnostics; never
    raises *)
