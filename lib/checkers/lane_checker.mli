(** The network-send deadlock checker — Section 7, the paper's
    inter-procedural extension: per-handler lane allowances against the
    worst-case send burst on any path, with the fixed-point rule for
    loops and recursion and inter-procedural back traces.

    It runs as the paper's two passes: {!local} is the local pass over
    one function, {!link} the global pass over a program's flow graphs. *)

val name : string
val metal_loc : int

type local
(** one function's flow graph, its sends annotated with their lanes;
    plain data, so a driver may cache it *)

val local : Ast.func -> local
(** the local pass: a pure function of the function's text *)

val link :
  ?fixed_point:bool ->
  spec:Flash_api.spec ->
  (string -> local option) ->
  Diag.t list
(** the global pass over the flow graphs of the program's functions,
    by name (each name standing for its last definition, as
    {!Callgraph.find_func} picks it); [~fixed_point:false] disables the
    cycle rule (the ablation) *)

val locals_of_units : Ast.tunit list -> string -> local option
(** the flow graphs of units held in memory, by name: the last
    definition's, computed when asked for *)

val run :
  ?fixed_point:bool ->
  spec:Flash_api.spec ->
  Ast.tunit list ->
  Diag.t list
(** {!link} over {!locals_of_units} *)

val applied : Ast.tunit list -> int
