(** Control-flow graphs for Clite functions.

    Each node holds at most one simple statement or branch condition, so the
    metal engine can replay the exact source events along any path.  The
    builder handles the full Clite statement language: structured control
    flow, [switch] with fall-through, [break]/[continue], labels and
    [goto]. *)



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

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable rev_nodes : node list;
  by_id : (int, node) Hashtbl.t;
  mutable count : int;
  labels : (string, int) Hashtbl.t;
  mutable pending_gotos : (string * int) list;  (** label, goto node id *)
}

let fresh b kind loc =
  let n = { id = b.count; kind; loc; succs = []; preds = [] } in
  b.count <- b.count + 1;
  b.rev_nodes <- n :: b.rev_nodes;
  Hashtbl.replace b.by_id n.id n;
  n

let find_node b id = Hashtbl.find b.by_id id

let link b ~from ~label ~target =
  let src = find_node b from in
  src.succs <- src.succs @ [ (label, target) ];
  let dst = find_node b target in
  dst.preds <- dst.preds @ [ from ]

(* A frontier is the set of dangling out-edges waiting for the next node. *)
type frontier = (int * edge_label) list

let connect b (frontier : frontier) (target : int) =
  List.iter (fun (from, label) -> link b ~from ~label ~target) frontier

type loop_ctx = {
  break_acc : frontier ref option;  (** where [break] edges accumulate *)
  continue_target : int option;
}

let no_ctx = { break_acc = None; continue_target = None }

(* Switch construction state: the switch node itself (case edges are added
   as case labels are found) and whether a default label was seen. *)
type switch_ctx = { switch_node : int; mutable saw_default : bool }

let rec build_stmt b (ctx : loop_ctx) (sw : switch_ctx option)
    (frontier : frontier) (s : Ast.stmt) : frontier =
  match s.Ast.sdesc with
  | Ast.Sexpr _ | Ast.Sdecl _ | Ast.Snull | Ast.Slabel _ ->
    let n = fresh b (Stmt s) s.Ast.sloc in
    connect b frontier n.id;
    (match s.Ast.sdesc with
    | Ast.Slabel name ->
      Hashtbl.replace b.labels name n.id;
      (* resolve any forward gotos now *)
      let resolved, pending =
        List.partition (fun (l, _) -> String.equal l name) b.pending_gotos
      in
      b.pending_gotos <- pending;
      List.iter
        (fun (_, goto_id) -> link b ~from:goto_id ~label:Seq ~target:n.id)
        resolved
    | _ -> ());
    [ (n.id, Seq) ]
  | Ast.Sblock body -> build_stmts b ctx sw frontier body
  | Ast.Sif (cond, then_s, else_s) -> (
    let n = fresh b (Branch cond) s.Ast.sloc in
    connect b frontier n.id;
    let after_then = build_stmt b ctx sw [ (n.id, True) ] then_s in
    match else_s with
    | Some e ->
      let after_else = build_stmt b ctx sw [ (n.id, False) ] e in
      after_then @ after_else
    | None -> after_then @ [ (n.id, False) ])
  | Ast.Swhile (cond, body) ->
    let head = fresh b (Branch cond) s.Ast.sloc in
    connect b frontier head.id;
    let break_acc = ref [] in
    let ctx' =
      { break_acc = Some break_acc; continue_target = Some head.id }
    in
    let after_body = build_stmt b ctx' sw [ (head.id, True) ] body in
    connect b after_body head.id;
    ((head.id, False) :: !break_acc)
  | Ast.Sdo (body, cond) ->
    let anchor = fresh b Join s.Ast.sloc in
    connect b frontier anchor.id;
    let tail = fresh b (Branch cond) s.Ast.sloc in
    let break_acc = ref [] in
    let ctx' =
      { break_acc = Some break_acc; continue_target = Some tail.id }
    in
    let after_body = build_stmt b ctx' sw [ (anchor.id, Seq) ] body in
    connect b after_body tail.id;
    link b ~from:tail.id ~label:True ~target:anchor.id;
    ((tail.id, False) :: !break_acc)
  | Ast.Sfor (init, cond, step, body) ->
    let frontier =
      match init with
      | Some (Ast.Fi_expr e) ->
        let n =
          fresh b (Stmt (Ast.mk_stmt ~loc:s.Ast.sloc (Ast.Sexpr e))) s.Ast.sloc
        in
        connect b frontier n.id;
        [ (n.id, Seq) ]
      | Some (Ast.Fi_decl d) ->
        let n =
          fresh b (Stmt (Ast.mk_stmt ~loc:s.Ast.sloc (Ast.Sdecl d))) s.Ast.sloc
        in
        connect b frontier n.id;
        [ (n.id, Seq) ]
      | None -> frontier
    in
    let head, loop_exit_frontier =
      match cond with
      | Some c ->
        let h = fresh b (Branch c) s.Ast.sloc in
        (h, [ (h.id, False) ])
      | None ->
        let h = fresh b Join s.Ast.sloc in
        (h, [])
    in
    connect b frontier head.id;
    let body_entry_label =
      match head.kind with Branch _ -> True | _ -> Seq
    in
    (* continue in a for loop goes to the step expression, or the head *)
    let step_node =
      match step with
      | Some e ->
        Some
          (fresh b
             (Stmt (Ast.mk_stmt ~loc:s.Ast.sloc (Ast.Sexpr e)))
             s.Ast.sloc)
      | None -> None
    in
    let continue_target =
      match step_node with Some n -> n.id | None -> head.id
    in
    let break_acc = ref [] in
    let ctx' =
      { break_acc = Some break_acc; continue_target = Some continue_target }
    in
    let after_body =
      build_stmt b ctx' sw [ (head.id, body_entry_label) ] body
    in
    (match step_node with
    | Some n ->
      connect b after_body n.id;
      link b ~from:n.id ~label:Seq ~target:head.id
    | None -> connect b after_body head.id);
    loop_exit_frontier @ !break_acc
  | Ast.Sswitch (scrutinee, body) ->
    let n = fresh b (Switch scrutinee) s.Ast.sloc in
    connect b frontier n.id;
    let break_acc = ref [] in
    let ctx' =
      { break_acc = Some break_acc; continue_target = ctx.continue_target }
    in
    let sw_ctx = { switch_node = n.id; saw_default = false } in
    (* the switch body starts unreachable except through case labels *)
    let after_body = build_stmt b ctx' (Some sw_ctx) [] body in
    let fallthrough =
      if sw_ctx.saw_default then [] else [ (n.id, Default_case) ]
    in
    after_body @ !break_acc @ fallthrough
  | Ast.Scase e ->
    let n = fresh b Join s.Ast.sloc in
    connect b frontier n.id;
    (match sw with
    | Some sw_ctx ->
      link b ~from:sw_ctx.switch_node ~label:(Case e) ~target:n.id
    | None -> raise (Build_error "case label outside switch"));
    [ (n.id, Seq) ]
  | Ast.Sdefault ->
    let n = fresh b Join s.Ast.sloc in
    connect b frontier n.id;
    (match sw with
    | Some sw_ctx ->
      sw_ctx.saw_default <- true;
      link b ~from:sw_ctx.switch_node ~label:Default_case ~target:n.id
    | None -> raise (Build_error "default label outside switch"));
    [ (n.id, Seq) ]
  | Ast.Sreturn e ->
    let n = fresh b (Return e) s.Ast.sloc in
    connect b frontier n.id;
    [] (* edges to exit are added in [build] *)
  | Ast.Sbreak -> (
    match ctx.break_acc with
    | Some acc ->
      acc := !acc @ frontier;
      []
    | None -> raise (Build_error "break outside loop or switch"))
  | Ast.Scontinue -> (
    match ctx.continue_target with
    | Some target ->
      connect b frontier target;
      []
    | None -> raise (Build_error "continue outside loop"))
  | Ast.Sgoto label -> (
    let n = fresh b (Stmt s) s.Ast.sloc in
    connect b frontier n.id;
    match Hashtbl.find_opt b.labels label with
    | Some target ->
      link b ~from:n.id ~label:Seq ~target;
      []
    | None ->
      b.pending_gotos <- (label, n.id) :: b.pending_gotos;
      [])

and build_stmts b ctx sw frontier stmts =
  List.fold_left (fun fr s -> build_stmt b ctx sw fr s) frontier stmts

(** Build the CFG for a function. *)
let build (f : Ast.func) : t =
  let b =
    {
      rev_nodes = [];
      by_id = Hashtbl.create 64;
      count = 0;
      labels = Hashtbl.create 8;
      pending_gotos = [];
    }
  in
  let entry = fresh b Entry f.Ast.f_loc in
  let frontier = build_stmts b no_ctx None [ (entry.id, Seq) ] f.Ast.f_body in
  let exit = fresh b Exit f.Ast.f_end_loc in
  connect b frontier exit.id;
  (* every return node flows to exit *)
  List.iter
    (fun n -> match n.kind with Return _ -> link b ~from:n.id ~label:Seq ~target:exit.id | _ -> ())
    b.rev_nodes;
  (* unresolved gotos (target label missing) dead-end at exit *)
  List.iter
    (fun (_, goto_id) -> link b ~from:goto_id ~label:Seq ~target:exit.id)
    b.pending_gotos;
  let nodes = Array.make b.count entry in
  List.iter (fun n -> nodes.(n.id) <- n) b.rev_nodes;
  { func = f; nodes; entry = entry.id; exit = exit.id }

(* ------------------------------------------------------------------ *)
(* Accessors and utilities                                             *)
(* ------------------------------------------------------------------ *)

let node t id = t.nodes.(id)
let n_nodes t = Array.length t.nodes
let succs t id = (node t id).succs

(** Nodes reachable from entry, in preorder. *)
let reachable t : int list =
  let seen = Array.make (n_nodes t) false in
  let order = ref [] in
  let rec go id =
    if not seen.(id) then begin
      seen.(id) <- true;
      order := id :: !order;
      List.iter (fun (_, s) -> go s) (succs t id)
    end
  in
  go t.entry;
  List.rev !order

(** Back edges (from, to) discovered by DFS from entry — each closes a
    source-level loop. *)
let back_edges t : (int * int) list =
  let state = Array.make (n_nodes t) `White in
  let backs = ref [] in
  let rec go id =
    state.(id) <- `Grey;
    List.iter
      (fun (_, s) ->
        match state.(s) with
        | `White -> go s
        | `Grey -> backs := (id, s) :: !backs
        | `Black -> ())
      (succs t id);
    state.(id) <- `Black
  in
  go t.entry;
  !backs
