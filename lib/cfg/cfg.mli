(** Control-flow graphs for Clite functions.

    Each node holds at most one simple statement or branch condition, so
    the metal engine can replay the exact source events along any path.
    The builder handles the full Clite statement language: structured
    control flow, [switch] with fall-through, [break]/[continue], labels
    and [goto]. *)

type kind =
  | Entry
  | Exit
  | Stmt of Ast.stmt  (** expression/decl/null/label statements *)
  | Branch of Ast.expr  (** out-edges labelled [True]/[False] *)
  | Switch of Ast.expr  (** out-edges labelled [Case]/[Default_case] *)
  | Return of Ast.expr option
  | Join  (** synthetic no-op anchor (loop heads, case labels) *)

type edge_label = Seq | True | False | Case of Ast.expr | Default_case

type node = {
  id : int;
  kind : kind;
  loc : Loc.t;
  mutable succs : (edge_label * int) list;
  mutable preds : int list;
}

type t = {
  func : Ast.func;
  nodes : node array;
  entry : int;
  exit : int;
}

exception Build_error of string

val build : Ast.func -> t
(** @raise Build_error on misplaced [break]/[continue]/[case] *)

val node : t -> int -> node
val n_nodes : t -> int
val succs : t -> int -> (edge_label * int) list
val reachable : t -> int list
(** nodes reachable from entry, in preorder *)

val back_edges : t -> (int * int) list
(** DFS back edges (from, to) — each closes a source-level loop *)
