(** The buffer-allocation failure checker — Section 9: every
    [ALLOCATE_DB()] must be checked with [ALLOC_FAILED] before the buffer
    is used. *)

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
(** allocation sites — Table 6's Applied column *)
