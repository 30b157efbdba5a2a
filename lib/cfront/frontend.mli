(** Convenience drivers: parse and type-annotate Clite programs. *)

val parse : ?file:string -> string -> Ast.tunit * Diag.t list
(** parse and annotate one source string: lexical and syntax errors are
    recovered from (panic-mode resynchronisation at [;] / [}] /
    top-level declaration boundaries) and returned as [lex]/[parse]
    diagnostics; every syntactically-intact function is kept.  Never
    raises. *)

val parse_strings : (string * string) list -> Ast.tunit list * Diag.t list
(** parse several (file name, source) pairs as one program: typedefs from
    earlier units are visible in later ones, and type annotation sees all
    globals; diagnostics are returned in file order.  Never raises. *)

val of_string : ?file:string -> string -> Ast.tunit
(** {!parse}, raising its first diagnostic
    @raise Lexer.Error / Parser.Error on malformed input *)

val of_file : string -> Ast.tunit

val of_strings : (string * string) list -> Ast.tunit list
(** {!parse_strings}, raising its first diagnostic
    @raise Lexer.Error / Parser.Error on malformed input *)

val loc_count : string -> int
(** non-blank source lines — the paper's LOC metric *)
