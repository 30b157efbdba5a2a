(** The nine FLASH checkers, with the metadata Table 7 reports.

    Checkers expose a two-phase interface so a scheduler (the [Mcd]
    daemon core) can dispatch *(checker x function)* work units:

    - intra-procedural checkers provide a per-function phase
      [check_fn : spec -> ctx -> Prep.t -> Diag.t list] whose results,
      concatenated in source order and passed through the checker's
      [finalize], are exactly what the whole-program [run] produces;
    - inter-procedural checkers ([lanes]) provide a whole-program phase
      [check_global : spec -> tunits -> Diag.t list].

    The derived [run] field keeps the original one-shot signature working
    for every caller. *)

type ctx = {
  all_units : Ast.tunit list;  (** the whole program being checked *)
  callgraph : Callgraph.t Lazy.t;
      (** forced on demand; schedulers that share a [ctx] across domains
          must force it before spawning *)
}

val make_ctx : Ast.tunit list -> ctx

type check_fn = spec:Flash_api.spec -> ctx:ctx -> Prep.t -> Diag.t list
(** Partial application [check_fn ~spec ~ctx] stages any spec-dependent
    setup (pattern compilation, state-machine construction) so the
    returned closure can be applied to many prepared functions cheaply.
    The per-function analysis (CFG, event arrays) comes in via {!Prep.t}
    so a driver running several checkers over one function builds it
    once.  The closure must not be shared across domains. *)

type check_global = spec:Flash_api.spec -> Ast.tunit list -> Diag.t list

type phase =
  | Per_function of {
      check_fn : check_fn;
      finalize : Diag.t list -> Diag.t list;
          (** applied to the in-order concatenation of per-function
              results; [Fun.id] for most checkers, [Diag.normalize] for
              the ones that historically sorted globally *)
      product : spec:Flash_api.spec -> Engine.pmachine option;
          (** the checker's state machine packed for
              {!Engine.product_scan}; [None] for pure AST walkers *)
    }
  | Whole_program of check_global

type checker = {
  name : string;
  description : string;
  metal_loc : int;  (** size of the paper's metal extension (Table 7) *)
  phase : phase;
  run : spec:Flash_api.spec -> Ast.tunit list -> Diag.t list;
      (** derived from [phase]; the backward-compatible one-shot entry *)
  applied : Ast.tunit list -> int;
      (** the "number of times the check was applied" metric *)
}

val run_of_phase :
  phase -> spec:Flash_api.spec -> Ast.tunit list -> Diag.t list
(** the derivation used for the [run] field: stage, map over every
    function in source order, finalize (or delegate to the global
    phase) *)

val all : checker list
val find : string -> checker option
val names : string list
val run_all : spec:Flash_api.spec -> Ast.tunit list -> (string * Diag.t list) list

val run_all_fused :
  spec:Flash_api.spec ->
  Ast.tunit list ->
  (string * Diag.t list) list
(** [run_all] with each function's {!Prep.t} built exactly once and
    shared across all per-function checkers; identical output, one CFG
    construction per function instead of eight.

    A fault barrier surrounds each (checker, function) pair: an
    exception becomes a Warning-severity ["internal"] diagnostic plus a
    degraded flow-insensitive retry, and a non-empty fault collection
    appends one [("internal", _)] entry to the result list.  The clean
    path is unchanged by the barrier. *)

val run_all_product :
  spec:Flash_api.spec ->
  Ast.tunit list ->
  (string * Diag.t list) list
(** [run_all_fused] with the per-checker traversals replaced by one
    {!Engine.product_scan} walk per function.  The scan detects which
    machines could emit on the function; only those (plus the pure AST
    walkers, which have no machine) re-run per checker, so output —
    witnesses included — stays byte-identical to [run_all_fused] while a
    clean function costs one walk instead of seven.

    Delegates to [run_all_fused] outright whenever
    {!Engine.containment_active}, so budgets, degraded mode, and fault
    injection keep their exact per-checker semantics; a scan that
    overflows or crashes falls back to the per-checker path for that
    function. *)
