(** The path-sensitive checking engine — the xg++ analogue.

    [check sm (`Func f)] applies the state machine down every execution
    path of the function's control-flow graph.  Traversal is depth-first;
    a [(node, state)] pair already visited is not re-explored, which
    keeps the engine linear in (nodes x distinct states) while still
    distinguishing every state the machine can be in at every program
    point — the trick that made exhaustive path checking tractable for
    xg++ in the presence of loops.

    Within a node, sub-expressions are offered to the rules in evaluation
    order; the first matching rule (state rules before [all] rules)
    fires. *)

type stats = {
  nodes_visited : int;
  events_matched : int;
  paths_stopped : int;
}
(** An immutable statistics snapshot.  The engine never mutates shared
    state: counts are accumulated domain-locally and folded into the
    caller's [stats ref] once per checked function, so concurrent domains
    each passing their own ref are race-free.  Merge per-domain records
    with {!stats_add} at join. *)

val stats_zero : stats
val stats_add : stats -> stats -> stats

val fresh_stats : unit -> stats ref
(** a fresh accumulator, [ref stats_zero] *)

type 'state exit_hook = Sm.action_ctx -> 'state -> unit
(** called once per distinct state in which a path reaches the function
    exit; used for "must do X before returning" rules *)

(** {2 Containment: budgets, degraded mode, fault injection}

    Fault-isolated units (see [Mcd]) wrap each (checker x function-batch)
    in a budget and, when a traversal crashes or the budget blows, retry
    it under {!with_degraded}.  All containment context is domain-local:
    concurrent workers never share a limiter. *)

exception Budget_exhausted of string
(** raised from inside a traversal when the installed unit budget runs
    out; schedulers catch it at the unit boundary *)

exception Injected_fault of string
(** raised at {!check_prep} entry when the test-only fault hook matches
    — the fault-injection harness's stand-in for a checker bug *)

type budget = { fuel : int option; deadline_ms : float option }
(** a per-unit resource budget: [fuel] bounds engine node visits (the
    [Paths.enumerate] limit idea extended to the (node x state)
    traversal), [deadline_ms] bounds wall-clock time *)

val no_budget : budget

val with_budget : budget -> (unit -> 'a) -> 'a
(** run with the budget installed for the current domain; traversals
    within raise {!Budget_exhausted} once it runs out *)

val with_degraded : (unit -> 'a) -> 'a
(** run in degraded, flow-insensitive mode: {!check_prep} makes a single
    pass over each function's events in source order (no branch
    exploration, no path sensitivity) — linear, hence total.  Budgets
    are suspended inside.  Diagnostics it emits are real; it can only
    miss path-dependent ones. *)

val set_fault_hook : (checker:string -> func:string -> bool) option -> unit
(** test-only: install a predicate that makes the matching
    (checker, function) pair raise {!Injected_fault} at {!check_prep}
    entry; [None] clears it.  Install before worker domains spawn. *)

val describe_fault : exn -> string
(** how a contained failure reads in an ["internal"] diagnostic *)

type target =
  [ `Func of Ast.func | `Unit of Ast.tunit | `Program of Ast.tunit list ]
(** what to check: one function, every function of a translation unit, or
    a whole program *)

val check :
  ?stats:stats ref ->
  ?at_exit:'state exit_hook ->
  'state Sm.t ->
  target ->
  Diag.t list
(** the single entry point; diagnostics come back sorted and deduplicated
    per function, concatenated in source order across functions *)

val check_prep :
  ?stats:stats ref ->
  ?at_exit:'state exit_hook ->
  'state Sm.t ->
  Prep.t ->
  Diag.t list
(** the fused fast path: check one prepared function, reusing its CFG
    and event arrays — [check sm (`Func f)] is
    [check_prep sm (Prep.build f)].  Drivers running several machines
    over the same function build the prep once and call this per
    machine.

    Honours the domain's containment context: raises {!Injected_fault}
    if the fault hook matches, runs flow-insensitively inside
    {!with_degraded}, raises {!Budget_exhausted} under an exhausted
    {!with_budget}. *)

(** {2 Prebuilt dispatch tables}

    A machine over dense integer states [0 .. n_states-1] can have every
    state's root-dispatch index compiled up front — once per machine
    instead of once per checked function.  This is what the metal
    compiler ([lib/metalc]) plugs its transition tables into: same
    traversal and containment semantics as {!check_prep}, with the
    per-function dispatch cache replaced by an array load. *)

type table
(** an [int Sm.t] with prebuilt per-state dispatch *)

val prebuild : n_states:int -> int Sm.t -> table
(** compile the dispatch index of every state in [0 .. n_states-1]; the
    machine must only ever reach states in that range *)

val table_sm : table -> int Sm.t
(** the underlying machine *)

val check_prep_table :
  ?stats:stats ref ->
  ?at_exit:int exit_hook ->
  table ->
  Prep.t ->
  Diag.t list
(** {!check_prep} for a prebuilt table — honours the same fault hook,
    degraded mode, and budget *)

(** {2 The product automaton}

    [product_scan] composes every packed machine into one automaton over
    state vectors and walks the function's CFG once, instead of once per
    machine.  The walk only {e detects}: it returns, per machine, whether
    the machine could emit at least one diagnostic on this function.
    Clean machines (the overwhelmingly common case on real protocol
    code) are done — their per-checker result is [] by construction.
    Dirty machines re-run through {!check_prep}, whose output (witnesses
    included) is byte-identical to the per-checker path.

    Drivers must delegate to the per-checker path whenever
    {!containment_active} — budgets, degraded mode and fault injection
    keep their exact per-checker semantics that way. *)

type pmachine
(** a state machine packed for the product scan, state type hidden *)

val pack : ?at_exit:'state exit_hook -> 'state Sm.t -> pmachine

val pack_table : ?at_exit:int exit_hook -> table -> pmachine
(** pack a prebuilt table; per-state dispatch is an array load *)

val reindex : 'state array -> 'state Sm.t -> int Sm.t
(** [reindex states sm] lowers a machine whose reachable states are
    exactly the entries of [states] onto dense integer states — the
    transition-table shape — so it can be {!prebuild}-compiled once.
    @raise Invalid_argument if the machine leaves the declared set *)

exception Product_overflow
(** the product vector space of a function blew the scan's visit cap;
    callers fall back to per-checker traversals *)

val containment_active : unit -> bool
(** is a budget, degraded mode, or fault hook armed on this domain? *)

val product_scan : Prep.t -> pmachine array -> bool array
(** one fused walk; [result.(i)] is [true] iff machine [i] may emit on
    this function and must re-run per checker.  Honours an installed
    budget. @raise Product_overflow when the visit cap blows *)

val subexprs_post : Ast.expr -> Ast.expr list
(** sub-expressions in evaluation (post-) order, including the root —
    the event order rules see *)
