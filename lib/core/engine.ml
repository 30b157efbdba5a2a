(** The path-sensitive checking engine — the xg++ analogue.

    [check sm (`Func f)] applies the state machine [sm] down every
    execution path of [f]'s control-flow graph.  Traversal is
    depth-first; a [(node, state)] pair already visited is not
    re-explored, which keeps the engine linear in (nodes x distinct
    states) while still distinguishing every state the machine can be in
    at every program point — the same trick xg++ used to make exhaustive
    path checking tractable in the presence of loops.

    Within a node, sub-expressions are offered to the rules in evaluation
    order, so a pattern for [FREE_BUF()] fires before the pattern for the
    enclosing send in [NI_SEND(FREE_BUF(), ...)].

    {2 One walk}

    Every walker — the path-sensitive walk, the degraded flat walk and
    the product scan — reads the same {!Prep.soa} event columns and
    hands each event to the same rule-firing step ({!fire}).  Rules are
    not scanned linearly per event: each state's rule list is compiled
    into a {!Pattern.root_shapes} index, screened on the event's root
    tag and callee symbol, so an event is only offered to rules whose
    pattern root could match it — for most events (plain identifiers,
    arithmetic) that is the empty list.  A staged {!machine} memoises
    those indexes per state across every function it checks.

    Witness steps are recorded as raw (location, expression, state)
    tuples and only rendered to strings when a diagnostic is actually
    emitted, so a match on a clean path costs no pretty-printing. *)

type 'state exit_hook = Sm.action_ctx -> 'state -> unit

(* ------------------------------------------------------------------ *)
(* Containment: budgets, degraded mode, fault injection                *)
(* ------------------------------------------------------------------ *)

exception Budget_exhausted of string
(** raised from inside a traversal when the installed unit budget runs
    out; schedulers catch it at the unit boundary *)

exception Injected_fault of string
(** raised at [check_prep] entry when the test-only fault hook matches —
    the fault-injection harness's stand-in for a checker bug *)

(* The per-unit resource budget.  [fuel] bounds node visits — the same
   guard [Paths.enumerate]'s [limit] gives path enumeration, extended to
   the engine's (node x state) traversal, where pathological machines
   (unbounded state growth) could otherwise run away.  [deadline_ms]
   bounds wall time; it is checked every 256 visits so the clock is
   off the hot path. *)
type budget = { fuel : int option; deadline_ms : float option }

let no_budget = { fuel = None; deadline_ms = None }

type limiter = { mutable fuel_left : int; deadline_us : float }

(* Domain-local: the budget reaches every checker through the engine
   without threading a parameter through the nine [check_fn] closures,
   and two domains never share a limiter. *)
let limiter_key : limiter option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let degraded_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(** Run [f] with [b] installed as the current domain's traversal budget;
    any [check_prep] within raises {!Budget_exhausted} once the budget
    runs out.  Budgets do not nest meaningfully: the innermost wins. *)
let with_budget (b : budget) f =
  match b with
  | { fuel = None; deadline_ms = None } -> f ()
  | _ ->
    let lim =
      {
        fuel_left = Option.value b.fuel ~default:max_int;
        deadline_us =
          (match b.deadline_ms with
          | Some ms -> Mcobs.now_us () +. (ms *. 1000.)
          | None -> infinity);
      }
    in
    let prev = Domain.DLS.get limiter_key in
    Domain.DLS.set limiter_key (Some lim);
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set limiter_key prev)
      f

(** Run [f] in degraded, flow-insensitive mode: every [check_prep]
    within runs the machine once over the function's events in source
    order (single state thread, branches not explored) — linear in event
    count, hence total.  The budget is suspended: the flat pass cannot
    run away.  This is the fallback a fault-isolated unit retries with
    after a crash or a blown budget. *)
let with_degraded f =
  let prev_d = Domain.DLS.get degraded_key in
  let prev_l = Domain.DLS.get limiter_key in
  Domain.DLS.set degraded_key true;
  Domain.DLS.set limiter_key None;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set degraded_key prev_d;
      Domain.DLS.set limiter_key prev_l)
    f

(* Test-only: the fault-injection harness installs a predicate and the
   matching (checker, function) pair raises at [check_prep] entry.
   Installed before worker domains spawn, cleared after the run. *)
let fault_hook : (checker:string -> func:string -> bool) option ref =
  ref None

let set_fault_hook h = fault_hook := h

let check_fault_hook ~checker ~func =
  match !fault_hook with
  | Some h when h ~checker ~func ->
    raise (Injected_fault (Printf.sprintf "%s/%s" checker func))
  | _ -> ()

(* How a contained failure reads in an ["internal"] diagnostic. *)
let describe_fault = function
  | Budget_exhausted msg -> "budget exhausted: " ^ msg
  | Injected_fault what -> "injected fault: " ^ what
  | exn -> "exception: " ^ Printexc.to_string exn

(* profile counters (see Mcobs: dotted names are not exposed) *)
let m_budget_exhausted = Mcobs.counter "engine.budget_exhausted"
let m_degraded_runs = Mcobs.counter "engine.degraded_runs"
let m_nodes_visited = Mcobs.counter "engine.nodes_visited"
let m_events_matched = Mcobs.counter "engine.events_matched"
let m_paths_stopped = Mcobs.counter "engine.paths_stopped"
let m_exit_states = Mcobs.counter "engine.exit_states"
let m_product_scans = Mcobs.counter "engine.product_scans"
let m_product_nodes_visited = Mcobs.counter "engine.product_nodes_visited"
let m_product_pack_fallbacks = Mcobs.counter "engine.product_pack_fallbacks"

let consume_fuel (lim : limiter) =
  lim.fuel_left <- lim.fuel_left - 1;
  if lim.fuel_left <= 0 then begin
    Mcobs.inc m_budget_exhausted;
    raise (Budget_exhausted "step fuel exhausted")
  end;
  if lim.fuel_left land 255 = 0 && Mcobs.now_us () > lim.deadline_us then begin
    Mcobs.inc m_budget_exhausted;
    raise (Budget_exhausted "unit deadline exceeded")
  end

(* A compact source rendering of the matched event for witness steps. *)
let event_string (e : Ast.expr) : string =
  let s = Pp.expr_to_string e in
  let s =
    String.map (function '\n' | '\t' -> ' ' | c -> c) s
  in
  if String.length s <= 48 then s else String.sub s 0 45 ^ "..."

(* ------------------------------------------------------------------ *)
(* Rule dispatch: the pattern root-index                               *)
(* ------------------------------------------------------------------ *)

(* Candidate rules per event root shape, in original rule order (state
   rules before [all] rules), so "first matching rule fires" is
   preserved exactly.  A call event with a direct callee looks its
   interned symbol up in [d_by_sym]; symbols no pattern mentions — and
   calls through non-identifier callees — fall back to the generic
   [Ast.Call] bucket of [d_by_tag], which holds only callee-wildcard
   call patterns and root-wildcard patterns. *)
type 'state dispatch = {
  d_by_sym : (int, 'state Sm.rule list) Hashtbl.t;
  d_by_tag : 'state Sm.rule list array;
}

let build_dispatch (rules : 'state Sm.rule list) : 'state dispatch =
  let classified =
    List.map (fun (r : 'state Sm.rule) -> (r, Pattern.root_shapes r.Sm.pattern)) rules
  in
  let admits_tag shapes tag =
    List.exists
      (function
        | Pattern.Root_any -> true
        | Pattern.Root_tag t -> t = tag
        | Pattern.Root_call _ -> false)
      shapes
  in
  let d_by_tag =
    Array.init Pattern.n_tags (fun tag ->
        List.filter_map
          (fun (r, shapes) -> if admits_tag shapes tag then Some r else None)
          classified)
  in
  let names = Hashtbl.create 8 in
  List.iter
    (fun (_, shapes) ->
      List.iter
        (function
          | Pattern.Root_call n -> Hashtbl.replace names n ()
          | Pattern.Root_tag _ | Pattern.Root_any -> ())
        shapes)
    classified;
  let d_by_sym = Hashtbl.create (Hashtbl.length names) in
  Hashtbl.iter
    (fun n () ->
      let admits shapes =
        List.exists
          (function
            | Pattern.Root_any -> true
            | Pattern.Root_tag t -> t = Pattern.tag_call
            | Pattern.Root_call m -> String.equal m n)
          shapes
      in
      Hashtbl.replace d_by_sym (Symtab.intern n)
        (List.filter_map
           (fun (r, shapes) -> if admits shapes then Some r else None)
           classified))
    names;
  { d_by_sym; d_by_tag }

(* ------------------------------------------------------------------ *)
(* Staged machines                                                     *)
(* ------------------------------------------------------------------ *)

(* A machine staged for checking.  [memo] holds each state's dispatch
   index, compiled on the state's first encounter and kept across every
   function this value checks — it also hoists the [rules state @ all]
   allocation out of the event loop.  It is mutable and unsynchronised,
   so a value belongs to one domain, like a staged checker closure. *)
type 'state machine = {
  sm : 'state Sm.t;
  at_exit : 'state exit_hook option;
  memo : ('state, 'state dispatch) Hashtbl.t;
}

let machine ?at_exit (sm : 'state Sm.t) : 'state machine =
  { sm; at_exit; memo = Hashtbl.create 16 }

let dispatch (m : 'state machine) (state : 'state) : 'state dispatch =
  match Hashtbl.find_opt m.memo state with
  | Some d -> d
  | None ->
    let d = build_dispatch (m.sm.Sm.rules state @ m.sm.Sm.all) in
    Hashtbl.add m.memo state d;
    d

(* The one rule-firing step every walker shares: offer event [j] of
   [soa] to the candidate rules of [disp] — screened on the event's root
   tag and, for a direct call, its callee symbol, before any pattern or
   expression is touched — and run the action of the first rule whose
   pattern matches.  [trace] is newest-first; [None] when no rule
   fires. *)
let fire ~func ~trace ~emit (soa : Prep.soa) (disp : 'state dispatch)
    (j : int) : 'state Sm.outcome option =
  let cls = soa.Prep.ev_class.(j) in
  let rules =
    if cls <> Pattern.tag_call then disp.d_by_tag.(cls)
    else
      match Hashtbl.find_opt disp.d_by_sym soa.Prep.ev_callee.(j) with
      | Some rules -> rules
      | None -> disp.d_by_tag.(cls)
  in
  match rules with
  | [] -> None
  | rules ->
    let event = soa.Prep.ev_expr.(j) in
    let rec first = function
      | [] -> None
      | (r : 'state Sm.rule) :: rest -> (
        match Pattern.match_expr r.Sm.pattern event with
        | None -> first rest
        | Some bindings ->
          Some
            (r.Sm.action
               {
                 Sm.func;
                 matched = event;
                 loc = event.Ast.eloc;
                 bindings;
                 trace = List.rev trace;
                 emit;
               }))
    in
    first rules

(* The context an exit hook runs in: a synthetic [return] event at the
   function's exit node. *)
let exit_loc (cfg : Cfg.t) : Loc.t = (Cfg.node cfg cfg.Cfg.exit).Cfg.loc

let exit_ctx ~func ~trace ~emit (cfg : Cfg.t) : Sm.action_ctx =
  {
    Sm.func;
    matched = Ast.ident "return";
    loc = exit_loc cfg;
    bindings = Binding.empty;
    trace;
    emit;
  }

(* is event [j] hidden from this machine? *)
let hidden (sm : _ Sm.t) (soa : Prep.soa) j =
  (not sm.Sm.observe_branches)
  && soa.Prep.ev_flags.(j) land Prep.soa_hidden_bit <> 0

(* ------------------------------------------------------------------ *)
(* Lazy witness steps                                                  *)
(* ------------------------------------------------------------------ *)

(* The traversal threads raw steps — matched expression and the states
   around the transition, unrendered.  [event_string]/[state_to_string]
   run only when a diagnostic is actually emitted (or the exit hook
   fires one), which is where [mcheck --explain] gets its witness. *)
type 'state raw_step = {
  r_loc : Loc.t;
  r_event : Ast.expr option;  (** [None] = the synthetic return event *)
  r_from : 'state;
  r_to : 'state option;  (** [None] = the path was stopped *)
}

let render_steps (state_str : 'state -> string)
    (steps : 'state raw_step list) : Diag.step list =
  (* [steps] is newest-first; the witness reads oldest-first *)
  List.rev_map
    (fun rs ->
      Diag.step ~loc:rs.r_loc
        ~event:
          (match rs.r_event with Some e -> event_string e | None -> "return")
        ~from_state:(state_str rs.r_from)
        ~to_state:
          (match rs.r_to with Some s -> state_str s | None -> "stop"))
    steps

(* ------------------------------------------------------------------ *)
(* The traversal                                                       *)
(* ------------------------------------------------------------------ *)

(** Run one staged machine over one prepared function.  Path-sensitive
    by default; inside {!with_degraded} the same node step is folded
    over the node ids in order, threading a single state — branches not
    explored, [branch] refinement skipped, linear in event count, hence
    total.  Diagnostics the degraded walk emits are real (every event it
    matches is in the function); it can only miss path-dependent ones.
    [at_exit] runs once per distinct state in which a path reaches the
    function exit (once, at the end, in the degraded walk). *)
let check_prep (m : 'state machine) (prep : Prep.t) : Diag.t list =
  let sm = m.sm in
  let func = prep.Prep.func in
  check_fault_hook ~checker:sm.Sm.name ~func:func.Ast.f_name;
  match sm.Sm.start func with
  | None -> []
  | Some start_state ->
    let degraded = Domain.DLS.get degraded_key in
    let limiter = Domain.DLS.get limiter_key in
    let cfg = prep.Prep.cfg in
    let soa = prep.Prep.soa in
    let nodes_visited = ref 0 in
    let events_matched = ref 0 in
    let paths_stopped = ref 0 in
    let diags = ref [] in
    let emit d = diags := d :: !diags in
    (* an action's emissions wait here until its step — whose to-state
       only the outcome reveals — can be attached as the witness *)
    let pending = ref [] in
    let buffer d = pending := d :: !pending in
    let state_str = sm.Sm.state_to_string in
    (* Process all events of node [id] starting from [state]; returns
       the resulting (state, dispatch, witness), or [None] when a rule
       stopped the path. *)
    let step (id : int) (state : 'state) (disp : 'state dispatch)
        (trace : Loc.t list) (steps : 'state raw_step list) :
        ('state * 'state dispatch * 'state raw_step list) option =
      let stop_at = soa.Prep.node_off.(id) + soa.Prep.node_len.(id) in
      let rec consume j state disp steps =
        if j >= stop_at then Some (state, disp, steps)
        else if hidden sm soa j then consume (j + 1) state disp steps
        else
          match fire ~func ~trace ~emit:buffer soa disp j with
          | None -> consume (j + 1) state disp steps
          | Some outcome ->
            incr events_matched;
            let event = soa.Prep.ev_expr.(j) in
            let r_to =
              match outcome with
              | Sm.Stay -> Some state
              | Sm.Goto next -> Some next
              | Sm.Stop -> None
            in
            let steps =
              { r_loc = event.Ast.eloc; r_event = Some event;
                r_from = state; r_to }
              :: steps
            in
            (match !pending with
            | [] -> ()
            | ds ->
              pending := [];
              let witness = render_steps state_str steps in
              List.iter (fun d -> emit (Diag.with_witness witness d))
                (List.rev ds));
            (match outcome with
            | Sm.Stay -> consume (j + 1) state disp steps
            | Sm.Goto next -> consume (j + 1) next (dispatch m next) steps
            | Sm.Stop ->
              incr paths_stopped;
              None)
      in
      incr nodes_visited;
      consume soa.Prep.node_off.(id) state disp steps
    in
    (* diagnostics from the exit hook witness the whole path plus a
       synthetic return step *)
    let exit_states : ('state, unit) Hashtbl.t = Hashtbl.create 8 in
    let at_exit state trace steps =
      if not (Hashtbl.mem exit_states state) then begin
        Hashtbl.replace exit_states state ();
        match m.at_exit with
        | None -> ()
        | Some hook ->
          let witness =
            render_steps state_str
              ({ r_loc = exit_loc cfg; r_event = None; r_from = state;
                 r_to = Some state }
              :: steps)
          in
          hook
            (exit_ctx ~func ~trace:(List.rev trace)
               ~emit:(fun d -> emit (Diag.with_witness witness d))
               cfg)
            state
      end
    in
    (* sized from the CFG: most functions see a handful of states per
       node, so 4x nodes keeps the load factor low without rehashing *)
    let visited : (int * 'state, unit) Hashtbl.t =
      Hashtbl.create (if degraded then 1 else max 16 (4 * Prep.n_nodes prep))
    in
    let rec visit (id : int) (state : 'state) (disp : 'state dispatch)
        (trace : Loc.t list) (steps : 'state raw_step list) =
      (* single hash probe: [replace] adds iff the key is new, which the
         length reveals *)
      let before = Hashtbl.length visited in
      Hashtbl.replace visited (id, state) ();
      if Hashtbl.length visited > before then begin
        (match limiter with Some lim -> consume_fuel lim | None -> ());
        let node = Cfg.node cfg id in
        let trace = node.Cfg.loc :: trace in
        match step id state disp trace steps with
        | None -> ()
        | Some (state, disp, steps) ->
          if id = cfg.Cfg.exit then at_exit state trace steps
          else
            List.iter
              (fun (label, succ) ->
                let state' =
                  match (sm.Sm.branch, node.Cfg.kind, label) with
                  | Some refine, Cfg.Branch cond, Cfg.True ->
                    refine state cond true
                  | Some refine, Cfg.Branch cond, Cfg.False ->
                    refine state cond false
                  | _ -> state
                in
                let disp' =
                  if state' == state then disp else dispatch m state'
                in
                visit succ state' disp' trace steps)
              node.Cfg.succs
      end
    in
    (* the degraded walk: the node step folded over node ids in order;
       its budget is suspended and its actions see an empty trace *)
    let rec flat id state disp steps =
      if id >= Prep.n_nodes prep then at_exit state [] steps
      else
        match step id state disp [] steps with
        | None -> ()
        | Some (state, disp, steps) -> flat (id + 1) state disp steps
    in
    let traverse () =
      let disp = dispatch m start_state in
      if degraded then begin
        flat 0 start_state disp [];
        Mcobs.inc m_degraded_runs
      end
      else visit cfg.Cfg.entry start_state disp [] [];
      Mcobs.inc ~by:!nodes_visited m_nodes_visited;
      Mcobs.inc ~by:!events_matched m_events_matched;
      Mcobs.inc ~by:!paths_stopped m_paths_stopped;
      Mcobs.inc ~by:(Hashtbl.length exit_states) m_exit_states;
      Diag.normalize !diags
    in
    if Mcobs.enabled () then
      Mcobs.with_span "engine.check_fn"
        ~args:
          [
            ("checker", sm.Sm.name);
            ("func", func.Ast.f_name);
            ("cfg_nodes", string_of_int (Prep.n_nodes prep));
            ("cfg_edges", string_of_int prep.Prep.n_edges);
          ]
        traverse
    else traverse ()

(* ------------------------------------------------------------------ *)
(* The product scan: one walk per function, all machines               *)
(* ------------------------------------------------------------------ *)

(** Is any containment context armed on this domain?  Product drivers
    delegate to the per-checker path when it is, so budgets, degraded
    mode, and fault injection keep their exact per-checker semantics. *)
let containment_active () =
  Domain.DLS.get degraded_key
  || Option.is_some (Domain.DLS.get limiter_key)
  || Option.is_some !fault_hook

(** A staged machine packed for the product scan, its state type
    hidden. *)
type pmachine = Pmachine : 'state machine -> pmachine

let pack (m : 'state machine) : pmachine = Pmachine m

exception Product_overflow
(** the product vector space of this function blew the scan's visit cap;
    callers fall back to per-checker traversals *)

(* Sentinel for a machine with no live state on this path: inactive on
   the function, stopped by a rule, or already known dirty. *)
let p_stopped = -1

(* The per-machine runtime: monomorphic closures over dense dynamic
   state ids, so the scan's driver never sees the state type.

   The scan detects, it does not report: it walks the product automaton
   once and flags each machine that could emit a diagnostic (from a rule
   action or its exit hook).  A clean machine's per-checker result is []
   by construction; a dirty machine re-runs through the ordinary
   traversal, whose output — witnesses included — is the per-checker
   path's, byte for byte.

   Why detection is exact: per-checker, emissions fire exactly at fresh
   [(node, state)] configurations of that machine's DFS visited set
   (plus fresh exit states).  The product DFS reaches every reachable
   product vector, and the projection of those vectors onto machine [i]
   is machine [i]'s full reachable configuration set — each per-machine
   path is the projection of a product path.  The per-machine memo runs
   actions exactly once per fresh configuration, so the scan fires a
   superset-of-nothing and misses nothing: dirty here iff ≥1 diagnostic
   there.  Once a machine is dirty its evolution no longer matters; it
   collapses to [p_stopped], which only merges product vectors (more
   pruning for the others, never less coverage — the remaining product
   still reaches every sub-vector). *)
type pinst = {
  i_start : int option;
  i_has_branch : bool;
  i_step : int -> int -> int;  (** node -> state id -> out id / stopped *)
  i_refine : int -> Ast.expr -> bool -> int;
  i_record_exit : int -> unit;
  i_finish : unit -> unit;  (** replay the exit hook over exit states *)
  i_dirty : unit -> bool;
}

let inactive_inst : pinst =
  {
    i_start = None;
    i_has_branch = false;
    i_step = (fun _ s -> s);
    i_refine = (fun s _ _ -> s);
    i_record_exit = ignore;
    i_finish = ignore;
    i_dirty = (fun () -> false);
  }

let make_inst (prep : Prep.t) (Pmachine m : pmachine) : pinst =
  let sm = m.sm in
  let func = prep.Prep.func in
  match sm.Sm.start func with
  | None -> inactive_inst
  | Some start_state ->
    let soa = prep.Prep.soa in
    let cfg = prep.Prep.cfg in
    let n_nodes = Prep.n_nodes prep in
    let dirty = ref false in
    let emit _ = dirty := true in
    (* dynamic state interning: dense ids under structural equality —
       the same equality the per-checker visited set uses *)
    let states = ref (Array.make 8 start_state) in
    let ids = Hashtbl.create 8 in
    let n_states = ref 0 in
    let id_of s =
      match Hashtbl.find_opt ids s with
      | Some id -> id
      | None ->
        let id = !n_states in
        if id >= Array.length !states then begin
          let bigger = Array.make (2 * Array.length !states) s in
          Array.blit !states 0 bigger 0 (Array.length !states);
          states := bigger
        end;
        !states.(id) <- s;
        Hashtbl.add ids s id;
        incr n_states;
        id
    in
    let start_id = id_of start_state in
    (* whole-node step memo: state-in -> state-out per node, actions
       run exactly once per fresh (node, state-in) configuration *)
    let memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let step node s_id =
      let key = (s_id * n_nodes) + node in
      match Hashtbl.find_opt memo key with
      | Some out -> out
      | None ->
        let stop_at = soa.Prep.node_off.(node) + soa.Prep.node_len.(node) in
        let rec consume j state disp =
          if j >= stop_at then id_of state
          else if hidden sm soa j then consume (j + 1) state disp
          else
            match fire ~func ~trace:[] ~emit soa disp j with
            | None | Some Sm.Stay -> consume (j + 1) state disp
            | Some (Sm.Goto next) -> consume (j + 1) next (dispatch m next)
            | Some Sm.Stop -> p_stopped
        in
        let state = !states.(s_id) in
        let out = consume soa.Prep.node_off.(node) state (dispatch m state) in
        Hashtbl.add memo key out;
        out
    in
    let refine =
      match sm.Sm.branch with
      | None -> fun s _ _ -> s
      | Some f -> fun s_id cond dir -> id_of (f !states.(s_id) cond dir)
    in
    let exit_seen : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    let finish () =
      match m.at_exit with
      | Some hook when not !dirty ->
        let ctx = exit_ctx ~func ~trace:[] ~emit cfg in
        Hashtbl.iter (fun s_id () -> hook ctx !states.(s_id)) exit_seen
      | _ -> ()
    in
    {
      i_start = Some start_id;
      i_has_branch = Option.is_some sm.Sm.branch;
      i_step = step;
      i_refine = refine;
      i_record_exit = (fun s_id -> Hashtbl.replace exit_seen s_id ());
      i_finish = finish;
      i_dirty = (fun () -> !dirty);
    }

exception Pack_overflow
(* internal to [product_scan]: a dynamic machine outgrew the 8-bit
   state field of the packed visited key; the scan restarts with
   structural keys *)

(* Open-addressing set of non-negative ints, linear probing, zero
   allocation per insert: the packed-key fast path of [product_scan]
   tests ~80k configurations per corpus run, and a generic [Hashtbl]
   would allocate a bucket (and hash a key array) for each. *)
module Iset = struct
  type t = { mutable slots : int array; mutable mask : int; mutable n : int }

  (* slots hold key+1, 0 means empty *)
  let create () = { slots = Array.make 512 0; mask = 511; n = 0 }

  let mix k = (k * 0x9E3779B1) lxor (k lsr 24)

  (* probe for [v] (non-zero); insert if absent; true when fresh *)
  let rec insert slots mask h v =
    let s = slots.(h) in
    if s = 0 then begin
      slots.(h) <- v;
      true
    end
    else if s = v then false
    else insert slots mask ((h + 1) land mask) v

  let grow t =
    let old = t.slots in
    let size = 2 * Array.length old in
    t.slots <- Array.make size 0;
    t.mask <- size - 1;
    Array.iter
      (fun v ->
        if v <> 0 then ignore (insert t.slots t.mask (mix v land t.mask) v))
      old

  let add t key =
    let v = key + 1 in
    let fresh = insert t.slots t.mask (mix v land t.mask) v in
    if fresh then begin
      t.n <- t.n + 1;
      (* keep load under 1/2 *)
      if 2 * t.n > t.mask then grow t
    end;
    fresh
end

(** One fused walk of the product automaton over a prepared function.
    Returns a per-machine flag: [false] means the machine provably emits
    nothing on this function (its per-checker result is []); [true]
    means it may emit and must re-run through {!check_prep}.

    Honours an installed budget ({!Budget_exhausted} propagates).
    @raise Product_overflow when the function's product vector space
    exceeds the visit cap — callers fall back per checker. *)
let product_scan (prep : Prep.t) (machines : pmachine array) : bool array =
  let m = Array.length machines in
  let cfg = prep.Prep.cfg in
  let n_nodes = Array.length cfg.Cfg.nodes in
  (* Visited-set representation.  Packed mode folds (node, vector) into
     one tagged int — 14 bits of node, 8 bits per machine state — and
     dedups through the allocation-free [Iset]; it covers every real
     function (6 machines, <16k nodes, <255 live states per machine).
     The structural-key path remains both as the fallback when packing
     overflows mid-scan and as the shape for degenerate inputs. *)
  let packed_ok = m <= 6 && n_nodes <= 0x3FFF in
  let run ~packed =
  let insts = Array.map (make_inst prep) machines in
  if not (Array.exists (fun i -> Option.is_some i.i_start) insts) then
    Array.make m false
  else begin
    let limiter = Domain.DLS.get limiter_key in
    let iset = Iset.create () in
    let visited : (int array, unit) Hashtbl.t =
      if packed then Hashtbl.create 1
      else Hashtbl.create (max 16 (4 * n_nodes))
    in
    let fresh_visit node (vec : int array) =
      if packed then begin
        let key = ref node in
        for i = 0 to m - 1 do
          let s = vec.(i) + 1 in
          if s > 0xFF then raise Pack_overflow;
          key := !key lor (s lsl (14 + (8 * i)))
        done;
        Iset.add iset !key
      end
      else begin
        let key = Array.make (m + 1) node in
        Array.blit vec 0 key 1 m;
        let before = Hashtbl.length visited in
        Hashtbl.replace visited key ();
        Hashtbl.length visited > before
      end
    in
    let visits = ref 0 in
    (* generous: clean protocol code sees a handful of distinct vectors
       per node; a function that blows this is cheaper per checker *)
    let cap = 256 * (n_nodes + 4) in
    let rec visit node (vec : int array) =
      if fresh_visit node vec then begin
        incr visits;
        if !visits > cap then raise Product_overflow;
        (match limiter with Some lim -> consume_fuel lim | None -> ());
        let out = Array.make m p_stopped in
        for i = 0 to m - 1 do
          let inst = insts.(i) in
          if vec.(i) >= 0 && not (inst.i_dirty ()) then
            out.(i) <- inst.i_step node vec.(i)
        done;
        let node_r = Cfg.node cfg node in
        if node = cfg.Cfg.exit then
          for i = 0 to m - 1 do
            if out.(i) >= 0 && not (insts.(i).i_dirty ()) then
              insts.(i).i_record_exit out.(i)
          done
        else
          List.iter
            (fun (label, succ) ->
              let vec' =
                match (node_r.Cfg.kind, label) with
                | Cfg.Branch cond, (Cfg.True | Cfg.False) ->
                  let dir = label = Cfg.True in
                  let refined = ref out in
                  for i = 0 to m - 1 do
                    if out.(i) >= 0 && insts.(i).i_has_branch then begin
                      let s' = insts.(i).i_refine out.(i) cond dir in
                      if s' <> out.(i) then begin
                        if !refined == out then refined := Array.copy out;
                        !refined.(i) <- s'
                      end
                    end
                  done;
                  !refined
                | _ -> out
              in
              visit succ vec')
            node_r.Cfg.succs
      end
    in
    let entry_vec =
      Array.map
        (fun i -> match i.i_start with Some s -> s | None -> p_stopped)
        insts
    in
    visit cfg.Cfg.entry entry_vec;
    Array.iter (fun i -> i.i_finish ()) insts;
    Mcobs.inc m_product_scans;
    Mcobs.inc ~by:!visits m_product_nodes_visited;
    Array.map (fun i -> i.i_dirty ()) insts
  end
  in
  if packed_ok then
    try run ~packed:true
    with Pack_overflow ->
      Mcobs.inc m_product_pack_fallbacks;
      run ~packed:false
  else run ~packed:false

type target =
  [ `Func of Ast.func | `Unit of Ast.tunit | `Program of Ast.tunit list ]

(** The convenience entry point: check a function, a translation unit,
    or a whole program with one machine staged for the call. *)
let check ?at_exit (sm : 'state Sm.t) (target : target) : Diag.t list =
  let check_func = check_prep (machine ?at_exit sm) in
  let check_unit tu =
    List.concat_map (fun f -> check_func (Prep.build f)) (Ast.functions tu)
  in
  match target with
  | `Func f -> check_func (Prep.build f)
  | `Unit tu -> check_unit tu
  | `Program tus -> List.concat_map check_unit tus
