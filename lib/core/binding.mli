(** Wildcard bindings produced by pattern matching.

    When a metal pattern such as [{ MISCBUS_READ_DB(addr, buf); }] matches,
    its declared wildcards are bound to the concrete expressions they
    matched.  A wildcard that occurs twice in one pattern must match
    structurally equal expressions. *)

type t

val empty : t

val find : t -> string -> Ast.expr option
(** the expression bound to a wildcard name, if any *)

val add : t -> string -> Ast.expr -> t option
(** [add t name expr] binds [name]; [None] when [name] is already bound to
    a structurally different expression. *)

val names : t -> string list
(** bound wildcard names, most recent first *)
