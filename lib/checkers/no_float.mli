(** The no-floating-point checker — the paper's separate 7-line extension
    (Table 7): the protocol processor has no FPU. *)

val name : string
val metal_loc : int
val check_prep : spec:Flash_api.spec -> Prep.t -> Diag.t list
(** staged: check one prepared function — the fused per-function
    phase the scheduler drives *)

val product : spec:Flash_api.spec -> Engine.pmachine option
(** the machine packed for {!Engine.product_scan}, [None] for pure AST
    walkers with nothing to compose *)

val run : spec:Flash_api.spec -> Ast.tunit list -> Diag.t list
val applied : Ast.tunit list -> int
