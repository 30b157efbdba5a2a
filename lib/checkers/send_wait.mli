(** The send/wait pairing checker — Section 9: every send with [W_WAIT]
    is followed by the matching interface wait, with no second
    synchronous send in between. *)

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
(** synchronous sends plus interface waits — Table 6's Applied column *)
