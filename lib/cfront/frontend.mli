(** Convenience drivers: parse and type-annotate Clite programs.  Every
    driver returns its result with the [lex]/[parse] diagnostics and never
    raises. *)

val parse : ?file:string -> string -> Ast.tunit * Diag.t list
(** parse and annotate one source string — the one-unit case of
    {!parse_strings}: lexical and syntax errors are recovered from
    (panic-mode resynchronisation at [;] / [}] / top-level declaration
    boundaries) and returned as [lex]/[parse] diagnostics; every
    syntactically-intact function is kept.  Never raises. *)

val parse_strings : (string * string) list -> Ast.tunit list * Diag.t list
(** parse several (file name, source) pairs as one program: typedefs from
    earlier units are visible in later ones, and type annotation sees all
    globals; diagnostics are returned in file order.  Never raises. *)

val loc_count : string -> int
(** non-blank source lines — the paper's LOC metric *)
