(** The buffer-management checker — Section 6: the four allocate/free
    rules, the spec's free/use/conditional-free routine tables, and the
    [has_buffer()]/[no_free_needed()] annotations (tracked so unused ones
    can be flagged). *)

val name : string
val metal_loc : int

type outcome = {
  diags : Diag.t list;
  useful_annotations : int;  (** Table 4's "useful" column *)
  unused_annotations : int;
}

val run_with_annotations : spec:Flash_api.spec -> Ast.tunit list -> outcome

val check_prep : spec:Flash_api.spec -> Prep.t -> Diag.t list
(** staged: [check_prep ~spec] compiles the spec's state machine once and
    returns the fused per-function phase the scheduler drives *)

val product : spec:Flash_api.spec -> Engine.pmachine option
(** the machine packed for {!Engine.product_scan}, [None] for pure AST
    walkers with nothing to compose *)

val run : spec:Flash_api.spec -> Ast.tunit list -> Diag.t list
val applied : Ast.tunit list -> int
