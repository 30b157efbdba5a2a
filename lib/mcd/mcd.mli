(** Mcd — the meta-checking daemon core: a parallel, incremental
    scheduler for function-batched work units.

    A work unit is one function batch: every per-function checker run
    back to back over one shared {!Prep.t} (the CFG and event arrays are
    built once per function per run).  Whole-program checkers contribute
    one unit each.

    Determinism guarantee: for any domain count and any cache state, the
    result lists are diagnostic-for-diagnostic identical — including
    order — to the sequential [Registry.run_all].  Work units write into
    pre-assigned slots and reassembly walks slots in canonical
    (job, function) order, so domain scheduling never shows.

    Incrementality: unit results are cached under content-hash keys
    (the per-function checkers' {!Registry.checker.key}s x spec digest
    x the program's env digest ({!Iface.env_digest}) x the function's
    file, start location and source digest; whole-program checkers hash
    their callgraph-reachable dependency set instead), so a re-check after
    editing one function re-runs only that function's batch plus any
    inter-procedural checker whose closure the edit invalidates.  A
    function without a source digest (built or rewritten in memory) is
    never cached, nor is a whole-program unit whose closure holds one.
    Every key comes from the files' {!Iface.t} facts, so a program
    whose units are still in a cache ({!indexed}) is keyed without an
    AST, and only the files a missed function batch reads are obtained;
    a missed whole-program unit links every file's flow graphs
    ({!Registry.local_pass}) instead of reading their units. *)

type job = {
  spec : Flash_api.spec;
  tus : Ast.tunit list;
}
(** one protocol to check *)

type stats = {
  units_total : int;  (** work units scheduled *)
  units_run : int;  (** units actually executed (= cache misses) *)
  cache_hits : int;
  units_faulted : int;
      (** units where a checker crashed or blew its budget and a degraded
          flow-insensitive result was substituted; their ["internal"]
          diagnostics appear as an extra result entry, and their slices
          are never cached *)
  workers_crashed : int;
      (** pool workers whose claim loop died; their orphaned units were
          re-claimed by the coordinator *)
  domains : int;
      (** domains used, after clamping to the cores and to the units to
          run *)
  workers : Mcd_pool.worker_stats array;
      (** per-domain pool statistics, in domain order — derived from the
          domains' [mcd.worker] Mcobs spans, measured once *)
  wall_ms : float;  (** end-to-end wall time of the call *)
}

type program
(** one protocol to check, whose units may still be in a cache *)

val of_job : job -> program
(** a program whose every unit is in memory; its facts are derived from
    them when a cache asks for keys, and never without one *)

val indexed :
  spec:Flash_api.spec ->
  Iface.t array ->
  fetch:(int list -> Ast.tunit list) ->
  locals:(int list -> Registry.local array list) ->
  program
(** a program known by its files' interfaces and function facts (a
    warm re-check's cache index), in file order.  After every key is
    resolved, and before any unit runs, [fetch] is called once, on the
    calling domain, with the indices (ascending) of the files the
    missed function batches read, and returns their annotated units in
    that order.  Then, when a whole-program unit missed, [locals] is
    called once with every file's index, and returns each one's flow
    graphs ({!Registry.local_pass} of its functions, in source order),
    which the global pass links.  Neither is called when every unit
    hits. *)

val check_programs :
  ?cache:Mcd_cache.t ->
  ?budget:Engine.budget ->
  ?checkers:Registry.checker list ->
  jobs:int ->
  program list ->
  (string * Diag.t list) list list * stats
(** check every program with [checkers] (default {!Registry.all}; a
    loaded metal spec is one {!Registry.of_sm} checker); each program's
    results are one entry per checker, in list order, exactly what each
    checker's [run ~spec tus] returns over its units.  [jobs] is the
    requested domain count, clamped to
    [1 .. Domain.recommended_domain_count ()] and to the number of units
    to run: oversubscribing a small host only adds
    minor-GC contention, so [--jobs 4] on one core, or a warm re-check
    that runs no unit, degrades to the sequential loop instead of
    running slower than it; one domain spawns nothing.  The scheduler's
    outcome (units scheduled, hit, run and faulted) is counted once, in
    the [mcheck_unit_cache_probes_total], [mcheck_unit_cache_hits_total],
    [mcheck_units_run_total] and [mcheck_units_faulted_total] counters
    of {!Mcobs}; the returned {!stats} carry the same numbers for this
    call.  With [?cache], hits are resolved before
    scheduling and misses are stored after the pool returns; without it
    no digest is computed.  Every unit is one {!Registry.check_function}
    or {!Registry.check_whole_program} call.  Per-function checkers get a
    {!Registry.ctx} over the units held.

    Fault isolation: each checker within a unit runs under [?budget]
    (default {!Engine.no_budget}); an exception or an exhausted budget
    becomes a Warning-severity ["internal"] diagnostic — appended as an
    extra [("internal", _)] entry on that program's result list — plus a
    degraded flow-insensitive retry, while the pool keeps draining.
    Faulted slots are never cached.  On the clean path the results are
    byte-identical to a run without the barrier. *)

val check_jobs :
  ?cache:Mcd_cache.t ->
  ?budget:Engine.budget ->
  ?checkers:Registry.checker list ->
  jobs:int ->
  job list ->
  (string * Diag.t list) list list * stats
(** {!check_programs} over {!of_job}s *)

val check_corpus :
  ?cache:Mcd_cache.t ->
  ?budget:Engine.budget ->
  jobs:int ->
  spec:Flash_api.spec ->
  Ast.tunit list ->
  (string * Diag.t list) list * stats
(** single-job convenience wrapper *)

val func_digest : string -> Ast.func -> string
(** content hash of one function ({!Iface.func_key}) — the per-function
    half of a cache key; [""] for a function without a source digest,
    which has no key *)

val pp_stats : Format.formatter -> stats -> unit

val pp_stats_line : Format.formatter -> stats -> unit
(** the one-line cache-hit / parallel-efficiency summary mcheck prints
    by default after [--jobs]/[--incremental] runs *)
