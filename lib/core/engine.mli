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
(** run in degraded, flow-insensitive mode: {!check_prep} folds its node
    step over the function's nodes in id order (no branch exploration,
    no path sensitivity) — linear, hence total.  Budgets
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

(** {2 Staged machines}

    A {!machine} is a state machine staged for checking: the machine,
    its optional exit hook, and a memo of each state's rule-dispatch
    index, compiled on the state's first encounter and kept across every
    function the value checks.  The memo is mutable and unsynchronised,
    so a machine value is domain-local in the same way a staged checker
    closure is: create one per staging (a checker's machine builder,
    called by [Registry] for each), never at module level, and never
    share one across domains. *)

type 'state machine

val machine : ?at_exit:'state exit_hook -> 'state Sm.t -> 'state machine

val check_prep : 'state machine -> Prep.t -> Diag.t list
(** check one prepared function, reusing its CFG and event columns —
    drivers running several machines over the same function build the
    prep once and call this per machine.

    Every walk reads {!Prep.soa} and fires rules through one step: the
    path-sensitive walk by default, and inside {!with_degraded} the same
    node step folded over the node ids in order.  Honours the domain's
    containment context: raises {!Injected_fault} if the fault hook
    matches, raises {!Budget_exhausted} under an exhausted
    {!with_budget}. *)

val check :
  ?at_exit:'state exit_hook -> 'state Sm.t -> target -> Diag.t list
(** the convenience entry point: stage a machine for this call and
    {!check_prep} every function of the target; diagnostics come back
    sorted and deduplicated per function, concatenated in source order
    across functions *)

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
(** a staged machine packed for the product scan, state type hidden *)

val pack : 'state machine -> pmachine

exception Product_overflow
(** the product vector space of a function blew the scan's visit cap;
    callers fall back to per-checker traversals *)

val containment_active : unit -> bool
(** is a budget, degraded mode, or fault hook armed on this domain? *)

val product_scan : Prep.t -> pmachine array -> bool array
(** one fused walk; [result.(i)] is [true] iff machine [i] may emit on
    this function and must re-run per checker.  Honours an installed
    budget.  Its visited set packs (node, state vector) into one int
    while every machine has fewer than 255 live states, and reruns with
    structural keys once one outgrows that (the
    [engine.product_pack_fallbacks] counter).
    @raise Product_overflow when the visit cap blows *)
