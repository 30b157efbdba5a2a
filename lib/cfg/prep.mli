(** Prep — the shared per-function analysis cache.

    [build f] computes, exactly once per function, everything a
    per-function CFG client needs: the graph and each node's flattened
    sub-expression events, laid out as one structure-of-arrays stream.
    The nine checkers, the [Mcd] function-batched work units, and the
    fused sequential driver all share one [t] per function instead of
    each rebuilding the CFG and re-deriving the events.

    Every [build] bumps the [prep.build] Mcobs counter, which is how the
    test suite pins "built exactly once per function per run" down. *)

(** Structure-of-arrays view of the event stream: all events of all
    nodes concatenated in node order into parallel arrays, allocated
    once per function.  Every engine walk reads the dense screening keys
    sequentially and touches [ev_expr] only for the rules that survive
    screening.  Branch/switch conditions are included and flagged;
    machines that do not observe branches skip them. *)
type soa = {
  ev_expr : Ast.expr array;  (** the event expression *)
  ev_class : int array;  (** root tag, [Ast.expr_tag] *)
  ev_callee : int array;
      (** callee symbol id ([Symtab]) for a direct call, [-1] otherwise *)
  ev_flags : int array;
      (** bit 0 ({!soa_hidden_bit}): hidden from non-observing machines *)
  node_off : int array;  (** per node: first event index *)
  node_len : int array;  (** per node: event count *)
}

type t = {
  func : Ast.func;
  cfg : Cfg.t;
  soa : soa;  (** node [i]'s events, in evaluation (post-) order, are
                  [node_off.(i) .. node_off.(i) + node_len.(i) - 1] *)
  n_edges : int;
}

val soa_hidden_bit : int
(** [ev_flags] bit marking branch/switch events, which non-observing
    machines must skip *)

val build : Ast.func -> t
(** @raise Cfg.Build_error on misplaced [break]/[continue]/[case] *)

val subexprs_post : Ast.expr -> Ast.expr list
(** sub-expressions in evaluation (post-) order, including the root —
    the event order state machines see *)

val n_nodes : t -> int
val n_edges : t -> int
