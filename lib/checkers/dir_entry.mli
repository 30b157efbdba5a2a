(** The manual directory-entry update checker — Section 9: entries are
    loaded before use and written back after modification, with the
    speculative-NAK paths pruned and hand-computed entry addresses
    flagged as abstraction errors. *)

val name : string
val metal_loc : int

val check_prep :
  ?nak_pruning:bool -> spec:Flash_api.spec -> Prep.t -> Diag.t list
(** staged: [check_prep ~spec] compiles the spec's state machine once and
    returns the fused per-function phase the scheduler drives *)

val product :
  ?nak_pruning:bool -> spec:Flash_api.spec -> unit -> Engine.pmachine option
(** the machine packed for {!Engine.product_scan} *)

val run :
  ?nak_pruning:bool ->
  spec:Flash_api.spec ->
  Ast.tunit list ->
  Diag.t list
(** [~nak_pruning:false] disables the speculative-NAK pruning (ablation) *)

val applied : Ast.tunit list -> int
(** directory operations — Table 6's Applied column *)
