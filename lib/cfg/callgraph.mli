(** Whole-program call graph over a set of translation units.

    The linking half of the paper's inter-procedural framework.  Calls
    through function pointers are not resolved (the paper's lanes checker
    is conservative and sound only "for straight-line code without
    function pointers"). *)

type call_site = { cs_callee : string; cs_loc : Loc.t }

type t

val build : Ast.tunit list -> t
(** the name table alone, linear in the number of functions: call sites
    are collected on demand *)

val find_func : t -> string -> Ast.func option
(** the last definition of the name *)

val callees : t -> string -> call_site list
(** call sites inside the named function ({!find_func}'s definition), in
    syntactic order *)

val functions : t -> Ast.func list
(** all defined functions, sorted by name *)

val reachable_from : t -> string list -> string list
(** functions transitively reachable from the given roots *)
