(** The message-length/data-flag consistency checker — Figure 3,
    Section 5: data sends need a non-zero length field, no-data sends a
    zero one; the last assignment on the path decides. *)

val name : string
val metal_loc : int

type state = Unknown | Zero_len | Nonzero_len

val sm : state Sm.t

val check_prep : spec:Flash_api.spec -> Prep.t -> Diag.t list
(** staged: check one prepared function — the fused per-function
    phase the scheduler drives *)

val product : spec:Flash_api.spec -> Engine.pmachine option
(** the machine packed for {!Engine.product_scan}, [None] for pure AST
    walkers with nothing to compose *)

val run : spec:Flash_api.spec -> Ast.tunit list -> Diag.t list

val applied : Ast.tunit list -> int
(** number of sends — Table 3's Applied column *)
