(** Inter-procedural analysis framework — the xg++ global-analysis analogue.

    The paper's flow is: a local pass walks each function and annotates
    events (e.g. "this call site sends on lane 2"), emitting per-function
    flow graphs; a global pass links the graphs through call edges and does
    a depth-first traversal computing a path property (e.g. maximum sends
    per lane), with fixed-point detection for cycles that do not change the
    abstract state.

    Here the client supplies an abstract domain [S] (a bounded join
    semilattice with a sequencing operator) and an event function mapping
    each CFG node of each function to an effect.  The local pass ([local])
    turns one function into its flow graph: every CFG node's effect as a
    term over the client's event and the node's call sites, the forward
    edges, and each loop's body.  The global pass ([summarize]) computes,
    per function, the join over all paths of the sequential composition of
    effects, where call sites splice in the callee's summary.  It reads
    flow graphs only, so a driver may hand it graphs computed in another
    run.  Cycles in the call graph are cut exactly as the paper describes:
    a recursive call whose effect so far is the identity is a fixed point
    and contributes nothing; otherwise [on_cycle] is told about the
    potential unbounded repetition. *)

module type DOMAIN = sig
  type t

  val zero : t
  (** identity for {!seq}, on both sides — "no effect" *)

  val seq : t -> t -> t
  (** sequential composition along a path *)

  val join : t -> t -> t
  (** least upper bound across alternative paths *)

  val equal : t -> t -> bool

  val loop_safe : t -> bool
  (** is repeating this effect a fixed point? (the paper's "cycles that do
      not send" rule; e.g. for the lanes domain, a loop body whose net
      effect does not grow the send count) *)

  val pp : Format.formatter -> t -> unit
end

(** A traced effect: the domain value plus the event sites that produced
    it, so clients can print the paper's inter-procedural "back traces". *)
module type CLIENT = sig
  module D : DOMAIN

  val event : Ast.func -> Cfg.node -> D.t
  (** local effect of one CFG node (identity for most nodes) *)
end

module Make (C : CLIENT) = struct
  module D = C.D

  type site = { site_func : string; site_loc : Loc.t; site_effect : D.t }

  (** A summary is the worst-case effect plus the witness path achieving
      it (for diagnostics). *)
  type summary = { effect_ : D.t; witness : site list }

  let zero_summary = { effect_ = D.zero; witness = [] }

  let seq_summary a b =
    { effect_ = D.seq a.effect_ b.effect_; witness = a.witness @ b.witness }

  (* join keeps the witness of whichever side "wins"; when the two sides
     are equal the first is kept, making results deterministic *)
  let join_summary a b =
    let joined = D.join a.effect_ b.effect_ in
    if D.equal joined a.effect_ then { effect_ = joined; witness = a.witness }
    else if D.equal joined b.effect_ then
      { effect_ = joined; witness = b.witness }
    else { effect_ = joined; witness = a.witness @ b.witness }

  (* ---------------------------------------------------------------- *)
  (* The local pass                                                   *)
  (* ---------------------------------------------------------------- *)

  (* A node's effect.  Resolving a call site computes (and memoises)
     the callee's summary, and inside a recursive cycle a summary
     depends on which member the traversal entered first, so a term
     also fixes the order its call sites are resolved in: a binary
     operator's right operand before its left, the order in which the
     lanes output pinned by the tests was computed. *)
  type term =
    | Zero
    | Event of D.t * Loc.t  (** the client's event at a node *)
    | Site of string * Loc.t  (** a call: the callee's summary *)
    | Seq of term * term  (** sequence; the left's sites resolve first *)
    | Rseq of term * term  (** sequence; the right's sites resolve first *)
    | Join of term * term  (** join; the right's sites resolve first *)

  (* [Zero] is an identity of sequencing on both sides, and a join of
     two zeros is zero, so no term holds a site-free subterm *)
  let seq a b = match (a, b) with Zero, t | t, Zero -> t | _ -> Seq (a, b)
  let rseq a b = match (a, b) with Zero, t | t, Zero -> t | _ -> Rseq (a, b)
  let join a b = match (a, b) with Zero, Zero -> Zero | _ -> Join (a, b)

  (* the call sites inside one expression, combined as the effects are:
     a call's function, then its arguments left to right, then the
     callee itself *)
  let rec expr_term (e : Ast.expr) : term =
    let sub =
      match e.Ast.edesc with
      | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
      | Ast.Ident _ | Ast.Sizeof_type _ ->
        Zero
      | Ast.Call (f, args) ->
        List.fold_left (fun acc a -> seq acc (expr_term a)) (expr_term f) args
      | Ast.Unop (_, a)
      | Ast.Cast (_, a)
      | Ast.Field (a, _)
      | Ast.Arrow (a, _)
      | Ast.Sizeof_expr a ->
        expr_term a
      | Ast.Binop (_, a, b)
      | Ast.Assign (a, b)
      | Ast.Op_assign (_, a, b)
      | Ast.Index (a, b)
      | Ast.Comma (a, b) ->
        rseq (expr_term a) (expr_term b)
      | Ast.Cond (a, b, c) ->
        rseq (expr_term a) (join (expr_term b) (expr_term c))
    in
    match e.Ast.edesc with
    | Ast.Call ({ edesc = Ast.Ident callee; _ }, _) ->
      seq sub (Site (callee, e.Ast.eloc))
    | _ -> sub

  (* a node's effect: its call sites, then the client's event *)
  let node_term (func : Ast.func) (node : Cfg.node) : term =
    let event = C.event func node in
    let calls =
      match node.Cfg.kind with
      | Cfg.Stmt { Ast.sdesc = Ast.Sexpr e; _ }
      | Cfg.Branch e | Cfg.Switch e | Cfg.Return (Some e) ->
        expr_term e
      | Cfg.Stmt { Ast.sdesc = Ast.Sdecl { Ast.v_init = Some e; _ }; _ } ->
        expr_term e
      | _ -> Zero
    in
    seq calls
      (if D.equal event D.zero then Zero else Event (event, node.Cfg.loc))

  type graph = {
    terms : term array;  (** by CFG node id *)
    succs : int array array;  (** forward edges only, in edge order *)
    loops : (Loc.t * int array) array;
        (** per back edge, in {!Cfg.back_edges} order: the loop head's
            location and the body's nodes, in the order their effects
            are sequenced *)
    entry : int;
  }

  type local = {
    l_loc : Loc.t;
    l_graph : (graph, string) result;
        (** [Error]: the deferred {!Cfg.Build_error} message *)
  }

  let graph_of (func : Ast.func) (cfg : Cfg.t) : graph =
    let backs = Cfg.back_edges cfg in
    let is_back a b = List.exists (fun (x, y) -> x = a && y = b) backs in
    let reachable_from start =
      let seen = Hashtbl.create 32 in
      let rec go id =
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.replace seen id ();
          List.iter (fun (_, s) -> go s) (Cfg.succs cfg id)
        end
      in
      go start;
      seen
    in
    let n = Cfg.n_nodes cfg in
    (* most functions have no loop *)
    let preds =
      lazy
        (let preds = Array.make n [] in
         for id = n - 1 downto 0 do
           List.iter
             (fun (_, s) -> preds.(s) <- id :: preds.(s))
             (Cfg.succs cfg id)
         done;
         preds)
    in
    (* body = nodes reachable from head that can reach src, in the order
       the table of the first half folds *)
    let body (src, head) =
      let preds = Lazy.force preds in
      let reaches_src = Array.make n false in
      let rec back id =
        if not reaches_src.(id) then begin
          reaches_src.(id) <- true;
          List.iter back preds.(id)
        end
      in
      back src;
      Hashtbl.fold
        (fun id () acc -> if reaches_src.(id) then id :: acc else acc)
        (reachable_from head) []
    in
    {
      terms = Array.init n (fun id -> node_term func (Cfg.node cfg id));
      succs =
        Array.init n (fun id ->
            Array.of_list
              (List.filter_map
                 (fun (_, s) -> if is_back id s then None else Some s)
                 (Cfg.succs cfg id)));
      loops =
        Array.of_list
          (List.map
             (fun ((_, head) as back) ->
               ((Cfg.node cfg head).Cfg.loc, Array.of_list (body back)))
             backs);
      entry = cfg.Cfg.entry;
    }

  let local (func : Ast.func) : local =
    {
      l_loc = func.Ast.f_loc;
      l_graph =
        (match Cfg.build func with
        | cfg -> Ok (graph_of func cfg)
        | exception Cfg.Build_error msg -> Error msg);
    }

  let loc l = l.l_loc

  let graph l =
    match l.l_graph with Ok g -> g | Error msg -> raise (Cfg.Build_error msg)

  let has_loop_and_event l =
    let g = graph l in
    let rec has_event = function
      | Event _ -> true
      | Zero | Site _ -> false
      | Seq (a, b) | Rseq (a, b) | Join (a, b) -> has_event a || has_event b
    in
    Array.length g.loops > 0 && Array.exists has_event g.terms

  (* ---------------------------------------------------------------- *)
  (* The global pass                                                  *)
  (* ---------------------------------------------------------------- *)

  type ctx = {
    lookup : string -> local option;
    locals : (string, local option) Hashtbl.t;  (** [lookup], memoised *)
    summaries : (string, summary) Hashtbl.t;
    mutable in_progress : string list;  (** call stack for cycle detection *)
    mutable cycle_warnings : (string * Loc.t) list;
        (** function, call-site loc of a recursive cycle *)
    mutable loop_warnings : (string * Loc.t) list;
        (** function, loop-head loc of an intra-procedural loop whose body
            has a non-identity effect (not a fixed point) *)
  }

  let create lookup =
    {
      lookup;
      locals = Hashtbl.create 64;
      summaries = Hashtbl.create 64;
      in_progress = [];
      cycle_warnings = [];
      loop_warnings = [];
    }

  let find ctx name =
    match Hashtbl.find_opt ctx.locals name with
    | Some l -> l
    | None ->
      let l = ctx.lookup name in
      Hashtbl.add ctx.locals name l;
      l

  (* The summary of one node's term in function [fname]: the client's
     event plus the effects of the calls it contains. *)
  let rec eval ctx fname (t : term) : summary =
    match t with
    | Zero -> zero_summary
    | Event (event, loc) ->
      {
        effect_ = event;
        witness = [ { site_func = fname; site_loc = loc; site_effect = event } ];
      }
    | Site (callee, loc) ->
      Option.value (summarize_name ctx ~loc callee) ~default:zero_summary
    | Seq (a, b) ->
      let a = eval ctx fname a in
      seq_summary a (eval ctx fname b)
    | Rseq (a, b) ->
      let b = eval ctx fname b in
      seq_summary (eval ctx fname a) b
    | Join (a, b) ->
      let b = eval ctx fname b in
      join_summary (eval ctx fname a) b

  (* Worst-case path summary of a whole function: DP over the acyclic
     CFG.  Loop bodies (back-edge regions) with a non-identity effect are
     *not* a fixed point; the paper warns in the intra-procedural case too,
     which we surface through [loop_warnings]. *)
  and func_summary ctx fname (l : local) : summary =
    let g = graph l in
    let memo : (int, summary) Hashtbl.t = Hashtbl.create 64 in
    let rec solve id =
      match Hashtbl.find_opt memo id with
      | Some s -> s
      | None ->
        let own = eval ctx fname g.terms.(id) in
        let rest =
          match g.succs.(id) with
          | [||] -> zero_summary
          | succs ->
            let acc = ref (solve succs.(0)) in
            for k = 1 to Array.length succs - 1 do
              acc := join_summary !acc (solve succs.(k))
            done;
            !acc
        in
        let s = seq_summary own rest in
        Hashtbl.replace memo id s;
        s
    in
    (* the paper's fixed-point rule: a cycle whose body has no effect can
       be ignored; a cycle that *does* have an effect may repeat it an
       unbounded number of times, so flag it *)
    Array.iter
      (fun (head_loc, body) ->
        let body_effect =
          Array.fold_left
            (fun acc id -> D.seq acc (eval ctx fname g.terms.(id)).effect_)
            D.zero body
        in
        if not (D.loop_safe body_effect) then
          ctx.loop_warnings <- (fname, head_loc) :: ctx.loop_warnings)
      g.loops;
    solve g.entry

  and summarize_name ctx ~loc (name : string) : summary option =
    match find ctx name with
    | None -> None
    | Some l ->
      if List.mem name ctx.in_progress then begin
        (* recursive cycle: fixed point iff the recursion adds nothing,
           which we approximate by treating the recursive call as zero
           and warning so the client can decide (the paper: "if there
           were sends, warn of a possible error") *)
        ctx.cycle_warnings <- (name, loc) :: ctx.cycle_warnings;
        Some zero_summary
      end
      else begin
        match Hashtbl.find_opt ctx.summaries name with
        | Some s -> Some s
        | None ->
          ctx.in_progress <- name :: ctx.in_progress;
          let s = func_summary ctx name l in
          ctx.in_progress <- List.tl ctx.in_progress;
          Hashtbl.replace ctx.summaries name s;
          Some s
      end

  (** Worst-case effect of running [root], splicing in callees
      transitively.  Returns [None] if [root] is not defined. *)
  let summarize ctx (root : string) : summary option =
    summarize_name ctx ~loc:Loc.none root

  (** Recursive call-graph cycles encountered (treated as fixed points);
      a client should warn when the involved function's final summary has
      a non-identity effect. *)
  let cycles ctx = ctx.cycle_warnings

  (** Intra-procedural loops whose body has a non-identity effect. *)
  let effectful_loops ctx = ctx.loop_warnings

  (** Final summary of [name], if it was computed. *)
  let summary_of ctx name = Hashtbl.find_opt ctx.summaries name
end
