(** The message-length/data-flag consistency checker — Figure 3,
    Section 5: data sends need a non-zero length field, no-data sends a
    zero one; the last assignment on the path decides. *)

val name : string
val metal_loc : int

type state

val machine : spec:Flash_api.spec -> state Engine.machine
(** the checker's state machine with its exit hook, staged afresh per
    call; [Registry] derives every way to run the checker from it *)

val applied : Ast.tunit list -> int
(** number of sends — Table 3's Applied column *)
