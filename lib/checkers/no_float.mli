(** The no-floating-point checker — the paper's separate 7-line extension
    (Table 7): the protocol processor has no FPU. *)

val name : string
val metal_loc : int

val walk : spec:Flash_api.spec -> Ast.func -> Diag.t list
(** check one function by walking its AST (no state machine, so nothing
    joins the product scan); results are unnormalized, [Registry] sorts
    and deduplicates the whole-program list *)

val applied : Ast.tunit list -> int
