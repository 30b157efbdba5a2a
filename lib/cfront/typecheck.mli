(** Lightweight type annotation for Clite.

    Resolves typedefs, records struct/union layouts and enum constants,
    and fills the [ety] field of every expression in place.  Not a
    conformance checker: unknown identifiers default to [Int] (protocol
    code is full of macro-constants declared elsewhere).  What the
    checkers rely on is that float-typed expressions and unsigned/scalar
    classifications are computed reliably. *)

val annotate_program : ?domains:int -> Ast.tunit list -> unit
(** annotate several units as one program, in place: all globals are
    loaded first so cross-unit references resolve *)

val annotate_units :
  ?domains:int -> program:Iface.item list list -> Ast.tunit list -> unit
(** annotate the given units, in place: the globals of [program] (every
    file's {!Iface.items}, in file order) are loaded first, then the
    functions are checked on [domains] pool workers (default 1) with the
    same result.  A unit's annotation depends only on its own functions
    and on those interfaces, so a unit annotated earlier under an equal
    {!Iface.env_digest} needs no second pass *)
