(** Convenience drivers: parse and type-annotate Clite programs.  Every
    driver returns its result with the [lex]/[parse] diagnostics and never
    raises. *)

val parse : ?file:string -> string -> Ast.tunit * Diag.t list
(** parse and annotate one source string — the one-unit case of
    {!parse_strings}: lexical and syntax errors are recovered from
    (panic-mode resynchronisation at [;] / [}] / top-level declaration
    boundaries) and returned as [lex]/[parse] diagnostics; every
    syntactically-intact function is kept.  Never raises. *)

val parse_strings :
  ?domains:int -> (string * string) list -> Ast.tunit list * Diag.t list
(** parse several (file name, source) pairs as one program: typedefs from
    earlier units are visible in later ones, and type annotation sees all
    globals; diagnostics are returned in file order.  [domains] (default
    1) runs the lexer, parser and annotation on that many {!Mcd_pool}
    workers with the same result (see {!parse_units}).  Never raises. *)

val parse_units :
  ?domains:int ->
  ?known:(int -> scope:string list -> string list option) ->
  (string * string) list ->
  (string list * (Ast.tunit * Diag.t list) option) array
(** the parsing half of {!parse_strings}, unannotated: each file's
    typedef scope (the names earlier files declare, most recent first)
    with its parse, or [None] where [known i ~scope] gave the names
    file [i] declares under that scope, so it needed no parse.  [known]
    may be asked more than once per file; its last answer stands.

    On [domains > 1] each file's source is pre-scanned for top-level
    typedefs, every file is lexed and parsed on the pool under the scope the
    predictions give, and a pass in file order re-parses each file
    whose real scope differs (counted by [cfront.prescan.mispredict]),
    so the result equals the one-domain parse.  Recorded as a
    [cfront.front] span with [domains] and [mispredicted] arguments.
    Never raises. *)

val typedef_names : Ast.tunit -> string list
(** the typedef names a unit declares, in declaration order; a later
    unit's parse sees every earlier unit's, most recent first *)

val loc_count : string -> int
(** non-blank source lines — the paper's LOC metric *)
