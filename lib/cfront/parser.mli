(** Recursive-descent parser for Clite.

    Covers the C subset FLASH-style protocol code uses: global variables,
    typedefs, struct/union/enum definitions, prototypes and function
    definitions; all C statements including [switch] and [goto]; the full
    expression grammar with standard precedence.  Typedef names are
    tracked so declarations can be distinguished from expressions. *)

val parse_string_recovering :
  ?file:string ->
  ?typedefs:string list ->
  string ->
  Ast.tunit * Diag.t list
(** parse a translation unit with panic-mode recovery: on a lexical or
    syntax error the malformed region is skipped — resynchronising at
    [;] / [}] / top-level declaration boundaries — and recorded as a
    [lex]/[parse] diagnostic, so every syntactically-intact global is
    still returned.  [typedefs] are typedef names already in scope
    (multi-file programs that share headers).  Never raises. *)

val parse_expr_string : ?file:string -> string -> (Ast.expr, Diag.t) result
(** a single expression, or the first [lex] or [parse] diagnostic — used
    by {!Pattern} and in tests; never raises *)
