(** Lightweight type annotation for Clite.

    Resolves typedefs, records struct/union layouts and enum constants,
    and fills the [ety] field of every expression in place.  Not a
    conformance checker: unknown identifiers default to [Int] (protocol
    code is full of macro-constants declared elsewhere).  What the
    checkers rely on is that float-typed expressions and unsigned/scalar
    classifications are computed reliably. *)

val annotate_program : Ast.tunit list -> unit
(** annotate several units as one program, in place: all globals are
    loaded first so cross-unit references resolve *)
