(** Wildcard bindings produced by pattern matching.

    When a metal pattern such as [{ MISCBUS_READ_DB(addr, buf); }] matches,
    the declared wildcards [addr] and [buf] are bound to the concrete
    expressions they matched.  A wildcard that occurs twice in one pattern
    must match structurally equal expressions. *)

type t = (string * Ast.expr) list

let empty : t = []

let find (t : t) name = List.assoc_opt name t

(** Add a binding; returns [None] when [name] is already bound to a
    structurally different expression. *)
let add (t : t) name expr : t option =
  match find t name with
  | None -> Some ((name, expr) :: t)
  | Some prior -> if Ast.equal_expr prior expr then Some t else None

let names (t : t) = List.map fst t
