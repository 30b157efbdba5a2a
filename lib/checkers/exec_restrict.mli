(** The handler execution-restriction checker — Section 8: handler
    signatures, deprecated macros, the no-stack rules
    (NO_STACK/SET_STACKPTR, address-of, aggregates), and the mandatory
    simulator hooks (Table 5). *)

val name : string
val metal_loc : int

val check_prep : spec:Flash_api.spec -> Prep.t -> Diag.t list
(** check one prepared function (the CFG is unused — this checker walks
    the AST directly); results are unnormalized, the registry's finalizer
    sorts and deduplicates the whole-program list *)

val product : spec:Flash_api.spec -> Engine.pmachine option
(** the machine packed for {!Engine.product_scan}, [None] for pure AST
    walkers with nothing to compose *)

val run : spec:Flash_api.spec -> Ast.tunit list -> Diag.t list

val applied : Ast.tunit list -> int
(** routines examined — Table 5's Handlers column *)

val vars_checked : Ast.tunit list -> int
(** local variables examined — Table 5's Vars column *)
