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

    {2 The fused fast path}

    All per-function analysis the engine needs — the CFG and each node's
    flattened event array — comes from a {!Prep.t}, so a driver checking
    one function with several machines builds that work once and calls
    {!check_prep} per machine ([Registry.check_function], the kernel
    behind every [Mcd] function-batch unit, does exactly that).
    {!check} remains the convenient entry point and builds a private
    prep per call.

    Rules are not scanned linearly per event: each state's rule list is
    compiled once (per checked function) into a {!Pattern.root_shapes}
    index, so an event is only offered to rules whose pattern root could
    match it — for most events (plain identifiers, arithmetic) that is
    the empty list.

    Witness steps are recorded as raw (location, expression, state)
    tuples and only rendered to strings when a diagnostic is actually
    emitted, so a match on a clean path costs no pretty-printing.

    Statistics are immutable snapshots accumulated into a caller-supplied
    [stats ref]: the engine itself only touches domain-local counters, so
    concurrent checks from several domains are race-free as long as each
    domain passes its own ref (merge the per-domain records with
    {!stats_add} at join — that is what [Mcd] does). *)

type stats = {
  nodes_visited : int;
  events_matched : int;
  paths_stopped : int;
}

let stats_zero = { nodes_visited = 0; events_matched = 0; paths_stopped = 0 }

let stats_add a b =
  {
    nodes_visited = a.nodes_visited + b.nodes_visited;
    events_matched = a.events_matched + b.events_matched;
    paths_stopped = a.paths_stopped + b.paths_stopped;
  }

let fresh_stats () = ref stats_zero

(* Sub-expressions in evaluation (post-) order — now owned by [Prep],
   re-exported here because the engine is where callers historically
   found it. *)
let subexprs_post = Prep.subexprs_post

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

let consume_fuel (lim : limiter) =
  lim.fuel_left <- lim.fuel_left - 1;
  if lim.fuel_left <= 0 then begin
    Mcobs.count "engine.budget_exhausted";
    raise (Budget_exhausted "step fuel exhausted")
  end;
  if lim.fuel_left land 255 = 0 && Mcobs.now_us () > lim.deadline_us then begin
    Mcobs.count "engine.budget_exhausted";
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
   preserved exactly.  A call event with an identifier callee looks its
   name up in [d_by_name]; names no pattern mentions — and calls through
   non-identifier callees — fall back to the generic [Ast.Call] bucket
   of [d_by_tag], which holds only callee-wildcard call patterns and
   root-wildcard patterns. *)
type 'state dispatch = {
  d_by_name : (string, 'state Sm.rule list) Hashtbl.t;
  d_by_sym : (int, 'state Sm.rule list) Hashtbl.t;
      (** the same buckets keyed by interned callee symbol — what the
          SoA product scan probes, an int hash instead of a string
          hash *)
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
  let d_by_name = Hashtbl.create (Hashtbl.length names) in
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
      let bucket =
        List.filter_map
          (fun (r, shapes) -> if admits shapes then Some r else None)
          classified
      in
      Hashtbl.replace d_by_name n bucket;
      Hashtbl.replace d_by_sym (Symtab.intern n) bucket)
    names;
  { d_by_name; d_by_sym; d_by_tag }

let candidates (d : 'state dispatch) (e : Ast.expr) : 'state Sm.rule list =
  match e.Ast.edesc with
  | Ast.Call ({ Ast.edesc = Ast.Ident name; _ }, _) -> (
    match Hashtbl.find_opt d.d_by_name name with
    | Some rules -> rules
    | None -> d.d_by_tag.(Pattern.tag_call))
  | _ -> d.d_by_tag.(Pattern.tag_of_expr e)

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

(* Run one state machine over one prepared function.  [at_exit] is
   invoked once per distinct state in which a path reaches the function
   exit.  All counters are local; the optional [stats] ref is touched
   exactly once, at the end. *)
(* Default per-state dispatch: compiled on first encounter into a cache
   private to this call — this also hoists the [rules state @ all]
   allocation out of the event loop.  Compiled tables (see {!prebuild})
   pass their own provider instead, built once per machine rather than
   once per checked function. *)
let cached_dispatch_for (sm : 'state Sm.t) : 'state -> 'state dispatch =
  let dispatch_cache : ('state, 'state dispatch) Hashtbl.t =
    Hashtbl.create 16
  in
  fun state ->
    match Hashtbl.find_opt dispatch_cache state with
    | Some d -> d
    | None ->
      let d = build_dispatch (sm.Sm.rules state @ sm.Sm.all) in
      Hashtbl.add dispatch_cache state d;
      d

let check_prep_full ?(stats : stats ref option)
    ?(at_exit : 'state exit_hook option)
    ?(dispatch_for : ('state -> 'state dispatch) option) (sm : 'state Sm.t)
    (prep : Prep.t) : Diag.t list =
  let func = prep.Prep.func in
  match sm.Sm.start func with
  | None -> []
  | Some start_state ->
    let limiter = Domain.DLS.get limiter_key in
    let cfg = prep.Prep.cfg in
    let events =
      Prep.events prep ~observe_branches:sm.Sm.observe_branches
    in
    let nodes_visited = ref 0 in
    let events_matched = ref 0 in
    let paths_stopped = ref 0 in
    let diags = ref [] in
    let emit d = diags := d :: !diags in
    let state_str = sm.Sm.state_to_string in
    (* sized from the CFG: most functions see a handful of states per
       node, so 4x nodes keeps the load factor low without rehashing *)
    let visited : (int * 'state, unit) Hashtbl.t =
      Hashtbl.create (max 16 (4 * Array.length cfg.Cfg.nodes))
    in
    let exit_states : ('state, unit) Hashtbl.t = Hashtbl.create 8 in
    let dispatch_for =
      match dispatch_for with
      | Some f -> f
      | None -> cached_dispatch_for sm
    in
    (* Process all events of node [id] starting from [state]; returns
       the resulting (state, dispatch, witness), or [None] when a rule
       stopped the path. *)
    let step (id : int) (state : 'state) (disp : 'state dispatch)
        (trace : Loc.t list) (steps : 'state raw_step list) :
        ('state * 'state dispatch * 'state raw_step list) option =
      let evs = events.(id) in
      let n = Array.length evs in
      let rec consume i state disp steps =
        if i >= n then Some (state, disp, steps)
        else begin
          let event = evs.(i) in
          let fired =
            List.find_map
              (fun (r : 'state Sm.rule) ->
                match Pattern.match_expr r.Sm.pattern event with
                | Some bindings -> Some (r, bindings)
                | None -> None)
              (candidates disp event)
          in
          match fired with
          | None -> consume (i + 1) state disp steps
          | Some (r, bindings) ->
            incr events_matched;
            (* buffer emissions during the action so the completed step
               (whose to-state is only known from the outcome) can be
               attached to them *)
            let pending = ref [] in
            let ctx =
              {
                Sm.func;
                matched = event;
                loc = event.Ast.eloc;
                bindings;
                trace = List.rev trace;
                emit = (fun d -> pending := d :: !pending);
              }
            in
            let outcome = r.Sm.action ctx in
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
            | pending ->
              let witness = render_steps state_str steps in
              List.iter
                (fun d -> emit (Diag.with_witness witness d))
                (List.rev pending));
            (match outcome with
            | Sm.Stay -> consume (i + 1) state disp steps
            | Sm.Goto next -> consume (i + 1) next (dispatch_for next) steps
            | Sm.Stop ->
              incr paths_stopped;
              None)
        end
      in
      consume 0 state disp steps
    in
    let rec visit (id : int) (state : 'state) (disp : 'state dispatch)
        (trace : Loc.t list) (steps : 'state raw_step list) =
      (* single hash probe: [replace] adds iff the key is new, which the
         length reveals — the old [mem]-then-[replace] hashed twice *)
      let before = Hashtbl.length visited in
      Hashtbl.replace visited (id, state) ();
      if Hashtbl.length visited > before then begin
        incr nodes_visited;
        (match limiter with Some lim -> consume_fuel lim | None -> ());
        let node = Cfg.node cfg id in
        let trace = node.Cfg.loc :: trace in
        match step id state disp trace steps with
        | None -> ()
        | Some (state, disp, steps) ->
          if id = cfg.Cfg.exit then begin
            if not (Hashtbl.mem exit_states state) then begin
              Hashtbl.replace exit_states state ();
              match at_exit with
              | Some hook ->
                (* diagnostics from the exit hook witness the whole path
                   plus a synthetic return step *)
                let ret_step =
                  { r_loc = node.Cfg.loc; r_event = None; r_from = state;
                    r_to = Some state }
                in
                let witness = render_steps state_str (ret_step :: steps) in
                let ctx =
                  {
                    Sm.func;
                    matched = Ast.ident "return";
                    loc = node.Cfg.loc;
                    bindings = Binding.empty;
                    trace = List.rev trace;
                    emit = (fun d -> emit (Diag.with_witness witness d));
                  }
                in
                hook ctx state
              | None -> ()
            end
          end
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
                  if state' == state then disp else dispatch_for state'
                in
                visit succ state' disp' trace steps)
              node.Cfg.succs
      end
    in
    let traverse () =
      visit cfg.Cfg.entry start_state (dispatch_for start_state) [] [];
      (match stats with
      | Some r ->
        r :=
          stats_add !r
            {
              nodes_visited = !nodes_visited;
              events_matched = !events_matched;
              paths_stopped = !paths_stopped;
            }
      | None -> ());
      Mcobs.count ~by:!nodes_visited "engine.nodes_visited";
      Mcobs.count ~by:!events_matched "engine.events_matched";
      Mcobs.count ~by:!paths_stopped "engine.paths_stopped";
      Mcobs.count ~by:(Hashtbl.length exit_states) "engine.exit_states";
      Diag.normalize !diags
    in
    if Mcobs.enabled () then
      Mcobs.with_span "engine.check_fn"
        ~args:
          [
            ("checker", sm.Sm.name);
            ("func", func.Ast.f_name);
            ("cfg_nodes", string_of_int (Array.length cfg.Cfg.nodes));
            ("cfg_edges", string_of_int prep.Prep.n_edges);
          ]
        traverse
    else traverse ()

(* ------------------------------------------------------------------ *)
(* The degraded (flow-insensitive) traversal                           *)
(* ------------------------------------------------------------------ *)

(* One pass over the nodes in id (roughly source) order, threading a
   single machine state; branches are not explored and [branch]
   refinement is skipped.  Linear in event count, hence total — the
   fallback when the path-sensitive traversal crashed or blew its
   budget.  Diagnostics it emits are real (every event it matches is in
   the function), it can only miss path-dependent ones. *)
let check_prep_flat ?(stats : stats ref option)
    ?(at_exit : 'state exit_hook option)
    ?(dispatch_for : ('state -> 'state dispatch) option) (sm : 'state Sm.t)
    (prep : Prep.t) : Diag.t list =
  let func = prep.Prep.func in
  match sm.Sm.start func with
  | None -> []
  | Some start_state ->
    let cfg = prep.Prep.cfg in
    let events =
      Prep.events prep ~observe_branches:sm.Sm.observe_branches
    in
    let nodes_visited = ref 0 in
    let events_matched = ref 0 in
    let paths_stopped = ref 0 in
    let diags = ref [] in
    let emit d = diags := d :: !diags in
    let state_str = sm.Sm.state_to_string in
    let dispatch_for =
      match dispatch_for with
      | Some f -> f
      | None -> cached_dispatch_for sm
    in
    let state = ref start_state in
    let disp = ref (dispatch_for start_state) in
    let steps = ref ([] : 'state raw_step list) in
    let stopped = ref false in
    let n_nodes = Array.length cfg.Cfg.nodes in
    (try
       for id = 0 to n_nodes - 1 do
         incr nodes_visited;
         let evs = events.(id) in
         for i = 0 to Array.length evs - 1 do
           let event = evs.(i) in
           let fired =
             List.find_map
               (fun (r : 'state Sm.rule) ->
                 match Pattern.match_expr r.Sm.pattern event with
                 | Some bindings -> Some (r, bindings)
                 | None -> None)
               (candidates !disp event)
           in
           match fired with
           | None -> ()
           | Some (r, bindings) ->
             incr events_matched;
             let pending = ref [] in
             let ctx =
               {
                 Sm.func;
                 matched = event;
                 loc = event.Ast.eloc;
                 bindings;
                 trace = [];
                 emit = (fun d -> pending := d :: !pending);
               }
             in
             let outcome = r.Sm.action ctx in
             let r_to =
               match outcome with
               | Sm.Stay -> Some !state
               | Sm.Goto next -> Some next
               | Sm.Stop -> None
             in
             steps :=
               { r_loc = event.Ast.eloc; r_event = Some event;
                 r_from = !state; r_to }
               :: !steps;
             (match !pending with
             | [] -> ()
             | pending ->
               let witness = render_steps state_str !steps in
               List.iter
                 (fun d -> emit (Diag.with_witness witness d))
                 (List.rev pending));
             (match outcome with
             | Sm.Stay -> ()
             | Sm.Goto next ->
               state := next;
               disp := dispatch_for next
             | Sm.Stop ->
               incr paths_stopped;
               stopped := true;
               raise Exit)
         done
       done
     with Exit -> ());
    (if not !stopped then
       match at_exit with
       | Some hook ->
         let exit_loc = (Cfg.node cfg cfg.Cfg.exit).Cfg.loc in
         let ret_step =
           { r_loc = exit_loc; r_event = None; r_from = !state;
             r_to = Some !state }
         in
         let witness = render_steps state_str (ret_step :: !steps) in
         let ctx =
           {
             Sm.func;
             matched = Ast.ident "return";
             loc = exit_loc;
             bindings = Binding.empty;
             trace = [];
             emit = (fun d -> emit (Diag.with_witness witness d));
           }
         in
         hook ctx !state
       | None -> ());
    (match stats with
    | Some r ->
      r :=
        stats_add !r
          {
            nodes_visited = !nodes_visited;
            events_matched = !events_matched;
            paths_stopped = !paths_stopped;
          }
    | None -> ());
    Mcobs.count "engine.degraded_runs";
    Diag.normalize !diags

(** Run one machine over one prepared function.  Honours the domain's
    containment context: raises {!Injected_fault} if the test hook
    matches, runs flow-insensitively inside {!with_degraded}, and
    raises {!Budget_exhausted} when a {!with_budget} limit runs out. *)
let check_prep ?stats ?at_exit (sm : 'state Sm.t) (prep : Prep.t) :
    Diag.t list =
  check_fault_hook ~checker:sm.Sm.name ~func:prep.Prep.func.Ast.f_name;
  if Domain.DLS.get degraded_key then check_prep_flat ?stats ?at_exit sm prep
  else check_prep_full ?stats ?at_exit sm prep

(* ------------------------------------------------------------------ *)
(* Prebuilt dispatch tables                                            *)
(* ------------------------------------------------------------------ *)

(* A machine over dense integer states with every state's dispatch index
   compiled up front — once per machine, not once per checked function.
   This is what the metal compiler's transition tables plug into: same
   traversal, same containment context, but the per-function
   [dispatch_cache] hashing is replaced by an array load. *)
type table = { t_sm : int Sm.t; t_dispatch : int dispatch array }

let prebuild ~(n_states : int) (sm : int Sm.t) : table =
  {
    t_sm = sm;
    t_dispatch =
      Array.init n_states (fun s -> build_dispatch (sm.Sm.rules s @ sm.Sm.all));
  }

let table_sm (t : table) : int Sm.t = t.t_sm

(** [check_prep] for a prebuilt table — honours the same fault hook,
    degraded mode, and budget as the generic path. *)
let check_prep_table ?stats ?at_exit (t : table) (prep : Prep.t) :
    Diag.t list =
  check_fault_hook ~checker:t.t_sm.Sm.name ~func:prep.Prep.func.Ast.f_name;
  let dispatch_for s = t.t_dispatch.(s) in
  if Domain.DLS.get degraded_key then
    check_prep_flat ?stats ?at_exit ~dispatch_for t.t_sm prep
  else check_prep_full ?stats ?at_exit ~dispatch_for t.t_sm prep

(* ------------------------------------------------------------------ *)
(* Generic reindexing: a finite machine lowered onto dense int states   *)
(* ------------------------------------------------------------------ *)

(** Lower a machine whose reachable states are exactly the entries of
    [states] onto dense integer states — the transition-table shape the
    metal compiler emits — so it can be {!prebuild}-compiled once per
    machine.  Actions are wrapped to translate their outcomes;
    [action_ctx] is state-independent, so behaviour is unchanged. *)
let reindex (states : 'state array) (sm : 'state Sm.t) : int Sm.t =
  let n = Array.length states in
  let id_of (s : 'state) : int =
    let rec go i =
      if i >= n then
        invalid_arg
          (Printf.sprintf "Engine.reindex: %s reached a state outside its \
                           declared set"
             sm.Sm.name)
      else if states.(i) = s then i
      else go (i + 1)
    in
    go 0
  in
  let wrap (r : 'state Sm.rule) : int Sm.rule =
    {
      Sm.pattern = r.Sm.pattern;
      action =
        (fun ctx ->
          match r.Sm.action ctx with
          | Sm.Stay -> Sm.Stay
          | Sm.Goto s -> Sm.Goto (id_of s)
          | Sm.Stop -> Sm.Stop);
    }
  in
  Sm.make ~name:sm.Sm.name
    ~start:(fun f -> Option.map id_of (sm.Sm.start f))
    ~rules:(fun i -> List.map wrap (sm.Sm.rules states.(i)))
    ~all:(List.map wrap sm.Sm.all)
    ~observe_branches:sm.Sm.observe_branches
    ?branch:
      (Option.map
         (fun refine i cond dir -> id_of (refine states.(i) cond dir))
         sm.Sm.branch)
    ~state_to_string:(fun i -> sm.Sm.state_to_string states.(i))
    ()

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

(** A machine packed for the product scan, its state type hidden. *)
type pmachine =
  | Pmachine : {
      p_sm : 'state Sm.t;
      p_at_exit : 'state exit_hook option;
      p_dispatch : ('state -> 'state dispatch) option;
    }
      -> pmachine

let pack ?at_exit (sm : 'state Sm.t) : pmachine =
  Pmachine { p_sm = sm; p_at_exit = at_exit; p_dispatch = None }

let pack_table ?at_exit (t : table) : pmachine =
  Pmachine
    {
      p_sm = t.t_sm;
      p_at_exit = at_exit;
      p_dispatch = Some (fun s -> t.t_dispatch.(s));
    }

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
  i_observe : bool;
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
    i_observe = true;
    i_has_branch = false;
    i_step = (fun _ s -> s);
    i_refine = (fun s _ _ -> s);
    i_record_exit = ignore;
    i_finish = ignore;
    i_dirty = (fun () -> false);
  }

let make_inst (prep : Prep.t) (pm : pmachine) : pinst =
  match pm with
  | Pmachine { p_sm = sm; p_at_exit; p_dispatch } -> (
    let func = prep.Prep.func in
    match sm.Sm.start func with
    | None -> inactive_inst
    | Some start_state ->
      let soa = prep.Prep.soa in
      let cfg = prep.Prep.cfg in
      let n_nodes = Array.length cfg.Cfg.nodes in
      let dirty = ref false in
      let emit _ = dirty := true in
      let dispatch_for =
        match p_dispatch with
        | Some f -> f
        | None -> cached_dispatch_for sm
      in
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
      let observe = sm.Sm.observe_branches in
      let step node s_id =
        let key = (s_id * n_nodes) + node in
        match Hashtbl.find_opt memo key with
        | Some out -> out
        | None ->
          let off = soa.Prep.node_off.(node) in
          let stop_at = off + soa.Prep.node_len.(node) in
          let rec consume j state disp =
            if j >= stop_at then id_of state
            else if
              (not observe)
              && soa.Prep.ev_flags.(j) land Prep.soa_hidden_bit <> 0
            then consume (j + 1) state disp
            else begin
              (* int screening over the SoA columns before any pattern
                 or expression is touched *)
              let cls = soa.Prep.ev_class.(j) in
              let rules =
                if cls = Pattern.tag_call then begin
                  let callee = soa.Prep.ev_callee.(j) in
                  if callee >= 0 then
                    match Hashtbl.find_opt disp.d_by_sym callee with
                    | Some rs -> rs
                    | None -> disp.d_by_tag.(Pattern.tag_call)
                  else disp.d_by_tag.(Pattern.tag_call)
                end
                else disp.d_by_tag.(cls)
              in
              match rules with
              | [] -> consume (j + 1) state disp
              | rules -> (
                let event = soa.Prep.ev_expr.(j) in
                let fired =
                  List.find_map
                    (fun (r : _ Sm.rule) ->
                      match Pattern.match_expr r.Sm.pattern event with
                      | Some bindings -> Some (r, bindings)
                      | None -> None)
                    rules
                in
                match fired with
                | None -> consume (j + 1) state disp
                | Some (r, bindings) ->
                  let ctx =
                    {
                      Sm.func;
                      matched = event;
                      loc = event.Ast.eloc;
                      bindings;
                      trace = [];
                      emit;
                    }
                  in
                  (match r.Sm.action ctx with
                  | Sm.Stay -> consume (j + 1) state disp
                  | Sm.Goto next -> consume (j + 1) next (dispatch_for next)
                  | Sm.Stop -> p_stopped))
            end
          in
          let state = !states.(s_id) in
          let out = consume off state (dispatch_for state) in
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
        match p_at_exit with
        | Some hook when not !dirty ->
          let exit_loc = (Cfg.node cfg cfg.Cfg.exit).Cfg.loc in
          Hashtbl.iter
            (fun s_id () ->
              let ctx =
                {
                  Sm.func;
                  matched = Ast.ident "return";
                  loc = exit_loc;
                  bindings = Binding.empty;
                  trace = [];
                  emit;
                }
              in
              hook ctx !states.(s_id))
            exit_seen
        | _ -> ()
      in
      {
        i_start = Some start_id;
        i_observe = observe;
        i_has_branch = Option.is_some sm.Sm.branch;
        i_step = step;
        i_refine = refine;
        i_record_exit = (fun s_id -> Hashtbl.replace exit_seen s_id ());
        i_finish = finish;
        i_dirty = (fun () -> !dirty);
      })

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
    Mcobs.count "engine.product_scans";
    Mcobs.count ~by:!visits "engine.product_nodes_visited";
    Array.map (fun i -> i.i_dirty ()) insts
  end
  in
  if packed_ok then
    try run ~packed:true
    with Pack_overflow ->
      Mcobs.count "engine.product_pack_fallbacks";
      run ~packed:false
  else run ~packed:false

let check_func ?stats ?at_exit (sm : 'state Sm.t) (func : Ast.func) :
    Diag.t list =
  check_prep ?stats ?at_exit sm (Prep.build func)

type target =
  [ `Func of Ast.func | `Unit of Ast.tunit | `Program of Ast.tunit list ]

(** The single entry point: check a function, a translation unit, or a
    whole program. *)
let check ?stats ?at_exit (sm : 'state Sm.t) (target : target) : Diag.t list
    =
  match target with
  | `Func f -> check_func ?stats ?at_exit sm f
  | `Unit tu ->
    List.concat_map
      (fun f -> check_func ?stats ?at_exit sm f)
      (Ast.functions tu)
  | `Program tus ->
    List.concat_map
      (fun tu ->
        List.concat_map
          (fun f -> check_func ?stats ?at_exit sm f)
          (Ast.functions tu))
      tus
