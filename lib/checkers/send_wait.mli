(** The send/wait pairing checker — Section 9: every send with [W_WAIT]
    is followed by the matching interface wait, with no second
    synchronous send in between. *)

val name : string
val metal_loc : int

type state

val machine : spec:Flash_api.spec -> state Engine.machine
(** the checker's state machine with its exit hook, staged afresh per
    call; [Registry] derives every way to run the checker from it *)

val applied : Ast.tunit list -> int
(** synchronous sends plus interface waits — Table 6's Applied column *)
