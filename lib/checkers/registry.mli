(** The nine FLASH checkers, with the metadata Table 7 reports.

    Checkers expose a two-phase interface so a scheduler (the [Mcd]
    daemon core) can dispatch function-batch work units:

    - intra-procedural checkers provide a per-function phase
      [check_fn : spec -> ctx -> Prep.t -> Diag.t list] whose results,
      concatenated in source order and passed through the checker's
      [finalize], are exactly what the whole-program [run] produces;
    - inter-procedural checkers ([lanes]) provide a whole-program phase
      [check_global : spec -> tunits -> Diag.t list].

    A built-in per-function checker module declares one thing: a state
    machine builder, from which this module derives both the checker's
    own walk and its product-scan machine, or an AST walk over one
    function.  {!run} runs one checker on its own, building a {!Prep.t}
    per function; {!run_all} over it is the reference every driver is
    tested against. *)

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
  key : string;
      (** the checker's part of a cache key: its name for a built-in,
          the machine name plus a digest of the spec source for a loaded
          metal spec, so two specs that share a name never share a
          cached result *)
  description : string;
  metal_loc : int;  (** size of the paper's metal extension (Table 7) *)
  phase : phase;
  applied : Ast.tunit list -> int;
      (** the "number of times the check was applied" metric *)
}

val all : checker list

val of_sm : key:string -> 'state Sm.t -> checker
(** a state machine as a per-function checker, staged exactly like a
    built-in machine checker, ignoring the spec.  How a loaded metal
    spec joins the kernel; [key] must change whenever the machine's
    rules do. *)

val find : string -> checker option
val names : string list

val run : checker -> spec:Flash_api.spec -> Ast.tunit list -> Diag.t list
(** the reference: one checker on its own, without the product scan or a
    fault barrier *)

val run_all : spec:Flash_api.spec -> Ast.tunit list -> (string * Diag.t list) list

(** {2 The checking kernel}

    One function of checking, shared by every driver: the sequential
    {!run_all_product} below and the [Mcd] scheduler's function-batch
    and whole-program units. *)

val is_per_function : checker -> bool

type staged
(** the per-function checkers staged for one spec: their closures
    ([check_fn ~spec ~ctx]) and their product machines, registry order.
    Each staged {!Engine.machine} memoises its per-state dispatch across
    the functions it checks, so a [staged] is not shareable across
    domains. *)

val stage : checkers:checker list -> spec:Flash_api.spec -> ctx:ctx -> staged
(** stage the per-function members of [checkers]; the closures and
    machines are built on the first {!check_function} *)

val check_function :
  staged -> budget:Engine.budget -> Ast.func -> Diag.t list array * Diag.t list
(** Check one function with every per-function checker: build its
    {!Prep.t} once, run one {!Engine.product_scan} (skipped when
    [budget] is not {!Engine.no_budget} or {!Engine.containment_active}),
    and rerun the dirty and machine-less checkers, each behind the fault
    barrier.  Returns one slice per per-function checker of the list the
    staging was made from, in list order,
    plus the ["internal"] fault diagnostics.

    Fault barrier: each checker runs under [budget]; an exception or an
    exhausted budget becomes a Warning-severity ["internal"] diagnostic
    plus a degraded flow-insensitive retry.  A function whose staging or
    {!Prep.t} fails gets empty slices and one fault.  On the clean path
    the slices are exactly the per-checker traversals'. *)

val check_whole_program :
  budget:Engine.budget -> checker -> spec:Flash_api.spec ->
  Ast.tunit list -> Diag.t list * Diag.t list
(** a [Whole_program] checker behind the same fault barrier: its slice
    plus its fault diagnostics.
    @raise Invalid_argument on a per-function checker *)

val assemble :
  checkers:checker list ->
  per_function:Diag.t list array list ->
  whole_program:Diag.t list list ->
  faults:Diag.t list ->
  (string * Diag.t list) list
(** the result list in [checkers] order: each
    per-function checker's slices of [per_function] (one array per
    function, source order) concatenated and finalized, the
    whole-program checkers' slices in list order, and — when [faults]
    is non-empty — one extra [("internal", _)] entry *)

val run_all_product :
  spec:Flash_api.spec ->
  Ast.tunit list ->
  (string * Diag.t list) list
(** the sequential driver: {!check_function} over every function in
    source order, then the whole-program checkers, without a budget.
    Output — witnesses included — is byte-identical to {!run_all}; a
    fault appends one [("internal", _)] entry. *)
