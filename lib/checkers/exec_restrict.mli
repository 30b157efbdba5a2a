(** The handler execution-restriction checker — Section 8: handler
    signatures, deprecated macros, the no-stack rules
    (NO_STACK/SET_STACKPTR, address-of, aggregates), and the mandatory
    simulator hooks (Table 5). *)

val name : string
val metal_loc : int

val walk : spec:Flash_api.spec -> Ast.func -> Diag.t list
(** check one function by walking its AST (no state machine, so nothing
    joins the product scan); results are unnormalized, [Registry] sorts
    and deduplicates the whole-program list *)

val applied : Ast.tunit list -> int
(** routines examined — Table 5's Handlers column *)

val vars_checked : Ast.tunit list -> int
(** local variables examined — Table 5's Vars column *)
