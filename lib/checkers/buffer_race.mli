(** The buffer fill-race checker — the paper's Figure 2, Section 4:
    [WAIT_FOR_DB_FULL] must precede [MISCBUS_READ_DB] on every path. *)

val name : string
val metal_loc : int
(** size of the paper's metal version (Table 7) *)

type state

val machine : spec:Flash_api.spec -> state Engine.machine
(** the checker's state machine with its exit hook, staged afresh per
    call; [Registry] derives every way to run the checker from it *)

val applied : Ast.tunit list -> int
(** number of data-buffer reads — Table 2's Applied column *)
