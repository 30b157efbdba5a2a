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
    x a digest of the globals and function signatures x the function's
    file, start location and source digest; whole-program checkers hash
    their callgraph-reachable dependency set instead), so a re-check after
    editing one function re-runs only that function's batch plus any
    inter-procedural checker whose closure the edit invalidates.  A
    function without a source digest (built or rewritten in memory) is
    never cached, nor is a whole-program unit whose closure holds one. *)

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

val check_jobs :
  ?cache:Mcd_cache.t ->
  ?budget:Engine.budget ->
  ?checkers:Registry.checker list ->
  jobs:int ->
  job list ->
  (string * Diag.t list) list list * stats
(** check every job with [checkers] (default {!Registry.all}; a loaded
    metal spec is one {!Registry.of_sm} checker); per-job results are
    one entry per checker, in list order, exactly what each checker's
    [run ~spec tus] returns.  [jobs] is the requested domain count,
    clamped to [1 .. Domain.recommended_domain_count ()] and to the
    number of units to run: oversubscribing a small host only adds
    minor-GC contention, so [--jobs 4] on one core, or a warm re-check
    that runs no unit, degrades to the sequential loop instead of
    running slower than it; one domain spawns nothing.  The scheduler's
    outcome (units scheduled, hit, run and faulted) is counted once, in
    the [mcheck_unit_cache_probes_total], [mcheck_unit_cache_hits_total],
    [mcheck_units_run_total] and [mcheck_units_faulted_total] counters
    of {!Mcobs}; the returned {!stats} carry the same numbers for this
    call.  With [?cache], hits are resolved before
    scheduling and misses are stored after the pool joins; without it
    no digest is computed.  Every unit is one {!Registry.check_function}
    or {!Registry.check_whole_program} call.

    Fault isolation: each checker within a unit runs under [?budget]
    (default {!Engine.no_budget}); an exception or an exhausted budget
    becomes a Warning-severity ["internal"] diagnostic — appended as an
    extra [("internal", _)] entry on that job's result list — plus a
    degraded flow-insensitive retry, while the pool keeps draining.
    Faulted slots are never cached.  On the clean path the results are
    byte-identical to a run without the barrier. *)

val check_corpus :
  ?cache:Mcd_cache.t ->
  ?budget:Engine.budget ->
  jobs:int ->
  spec:Flash_api.spec ->
  Ast.tunit list ->
  (string * Diag.t list) list * stats
(** single-job convenience wrapper *)

val func_digest : string -> Ast.func -> string
(** content hash of one function (file, start location and
    {!Ast.func.f_src_digest}) — the per-function half of a cache key;
    [""] for a function without a source digest, which has no key *)

val env_digest : Ast.tunit list -> string
(** what a program's units read from outside their own functions' text:
    the non-function globals and every function's signature, locations
    and initialisers left out — the job-wide half of every cache key,
    and everything {!Typecheck} writes into a unit depends on besides
    that unit's own text *)

val pp_stats : Format.formatter -> stats -> unit

val pp_stats_line : Format.formatter -> stats -> unit
(** the one-line cache-hit / parallel-efficiency summary mcheck prints
    by default after [--jobs]/[--incremental] runs *)
