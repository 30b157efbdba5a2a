(** The buffer-allocation failure checker — Section 9: every
    [ALLOCATE_DB()] must be checked with [ALLOC_FAILED] before the buffer
    is used. *)

val name : string
val metal_loc : int

type state

val machine : spec:Flash_api.spec -> state Engine.machine
(** the checker's state machine with its exit hook, staged afresh per
    call; [Registry] derives every way to run the checker from it *)

val applied : Ast.tunit list -> int
(** allocation sites — Table 6's Applied column *)
