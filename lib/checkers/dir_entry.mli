(** The manual directory-entry update checker — Section 9: entries are
    loaded before use and written back after modification, with the
    speculative-NAK paths pruned and hand-computed entry addresses
    flagged as abstraction errors. *)

val name : string
val metal_loc : int

type state

val machine :
  ?nak_pruning:bool -> spec:Flash_api.spec -> unit -> state Engine.machine
(** the checker's state machine with its exit hook, staged afresh per
    call; [Registry] derives every way to run the checker from it.
    [~nak_pruning:false] disables the speculative-NAK pruning (the
    ablation) *)

val applied : Ast.tunit list -> int
(** directory operations — Table 6's Applied column *)
