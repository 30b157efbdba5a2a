(** Pretty-printer for Clite.

    Emits compilable C text.  The corpus generator uses it to write the
    synthetic protocol sources, and the test suite uses it for
    parse/print round-trip properties: the printed form always re-parses
    to a structurally equal AST. *)

val pp_func : Format.formatter -> Ast.func -> unit
val expr_to_string : Ast.expr -> string
val tunit_to_string : Ast.tunit -> string
