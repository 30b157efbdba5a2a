(** The buffer fill-race checker — the paper's Figure 2, Section 4:
    [WAIT_FOR_DB_FULL] must precede [MISCBUS_READ_DB] on every path. *)

val name : string
val metal_loc : int
(** size of the paper's metal version (Table 7) *)

type state = Start

val sm : state Sm.t
(** the transliterated Figure 2 machine, reusable directly *)

val check_prep : spec:Flash_api.spec -> Prep.t -> Diag.t list
(** staged: check one prepared function — the fused per-function
    phase the scheduler drives *)

val product : spec:Flash_api.spec -> Engine.pmachine option
(** the machine packed for {!Engine.product_scan}, [None] for pure AST
    walkers with nothing to compose *)

val run : spec:Flash_api.spec -> Ast.tunit list -> Diag.t list

val applied : Ast.tunit list -> int
(** number of data-buffer reads — Table 2's Applied column *)
