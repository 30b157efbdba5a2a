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

type state

val machine : spec:Flash_api.spec -> state Engine.machine
(** the checker's state machine with its exit hook, staged afresh per
    call; [Registry] derives every way to run the checker from it *)

val applied : Ast.tunit list -> int
