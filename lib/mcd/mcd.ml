(** Mcd — the meta-checking daemon core.

    Schedules function-batched work units across OCaml 5 domains and
    caches unit results by content hash, so a corpus re-check after
    editing one handler only re-runs the affected units.

    {2 Scheduling model}

    The two-phase checker API ({!Registry.phase}) is what makes the unit
    decomposition sound: every intra-procedural checker runs its state
    machine over one function CFG at a time with no shared state.  A work
    unit is one *function batch*: all per-function checkers run back to
    back over one shared {!Prep.t} — one {!Registry.check_function}
    call — so the CFG and event arrays are built once per function per
    run instead of once per (checker x function) pair, and a unit is big
    enough that scheduling overhead cannot dominate it.  A
    [Whole_program] checker ([lanes]) contributes a single unit of its
    own.  Units are claimed in chunks from an
    {!Mcd_pool} atomic cursor by worker domains, and every unit writes
    into a pre-assigned result slot; reassembly walks the slots in the
    canonical (job, function) order and hands the slices to
    {!Registry.assemble}, so the output is diagnostic-for-diagnostic
    identical — including order — to the sequential [Registry.run_all],
    whatever the domain count.  One domain spawns nothing, and without a
    cache no digest is computed: [mcheck --jobs 1] runs here too.

    {2 Hashing and invalidation}

    A function batch's cache key is
    [fnbatch @ digest(per-function checker keys) @ digest(spec)
     @ digest(env) @ digest(file:line:col:source digest)]; a built-in
    checker's key is its name, a loaded metal spec's its name plus a
    digest of its source.  The source digest is the MD5 of the
    function's text, from its start through its closing brace, which the
    parser takes while it holds the file ({!Ast.func.f_src_digest}); with
    the start location it fixes every location inside the function.  The
    env digest covers what the unit reads from outside that text: the
    non-function globals and every function's signature, which give
    {!Typecheck} its types and the parser its typedef names.  The key
    covers everything the result depends on, so invalidation is
    automatic: editing a function changes its digest and the unit misses;
    every untouched function hits.  A function rewritten in memory has no
    source digest and no key: its batch always runs and is never stored.
    A whole-program unit's key replaces the function digest with a
    digest of the checker's *dependency set* — the callgraph closure
    reachable from the spec's handlers, each name standing for the
    definition {!Callgraph.find_func} picks — so an edit anywhere in that
    closure (equivalently: any function whose reverse-dependency closure
    meets a handler) re-runs the inter-procedural checker, and an edit to
    dead code does not.  A closure holding a function without a key
    leaves the unit without one. *)

type job = { spec : Flash_api.spec; tus : Ast.tunit list }

type stats = {
  units_total : int;
  units_run : int;  (** units actually executed (= cache misses) *)
  cache_hits : int;
  units_faulted : int;
      (** units where at least one checker crashed or blew its budget
          and a degraded result was substituted *)
  workers_crashed : int;  (** pool workers whose claim loop died *)
  domains : int;
  workers : Mcd_pool.worker_stats array;
      (** per-domain pool statistics, themselves derived from the
          domains' [mcd.worker] Mcobs spans *)
  wall_ms : float;
}

(* the checker-set half of every batch key: a batch result is only
   reusable by a run scheduling the same per-function checkers, by key,
   in the same order *)
let pf_set_digest (per_function : Registry.checker list) : string =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (List.map
             (fun (c : Registry.checker) -> c.Registry.key)
             per_function)))

(* by content: marshalling with sharing would give two equal specs whose
   values share differently (one lane-allowance array for two handlers,
   or two copies) different keys *)
let spec_digest (spec : Flash_api.spec) : string =
  Digest.to_hex
    (Digest.string (Marshal.to_string spec [ Marshal.No_sharing ]))

(* The per-function half of a key: [file], the function's start
   location and the digest of its source text.  Two textually identical
   functions in different places must not share diagnostics, whose
   locations differ; and since the text fixes every inner column relative
   to the start, a cached result never carries a stale location.  (A
   parsed function's [f_loc] names its unit's file, so the scheduler
   takes [file] from there.)  A function without a source digest (built
   or rewritten in memory) has no key: its batch runs and is not
   stored. *)
let func_key (file : string) (f : Ast.func) : string option =
  Option.map
    (fun d ->
      Digest.to_hex
        (Digest.string
           (Printf.sprintf "%s:%d:%d:%s" file f.Ast.f_loc.Loc.line
              f.Ast.f_loc.Loc.col d)))
    f.Ast.f_src_digest

let func_digest file f = Option.value (func_key file f) ~default:""

(* What a unit's result depends on outside its functions' own text: the
   types {!Typecheck} writes into [ety] come from the non-function
   globals and from every function's signature, and typedef names steer
   the parse.  Locations and initialisers are left out (no function's
   result reads them), so a declaration that only shifts lines leaves
   every key of the job valid. *)
type env_item =
  | Sig of string * Ctype.t * (string * Ctype.t) list
  | Decl of Ast.global

let env_digest (tus : Ast.tunit list) : string =
  let item = function
    | Ast.Gfunc f -> Sig (f.Ast.f_name, f.Ast.f_ret, f.Ast.f_params)
    | Ast.Gvar d ->
      Decl (Ast.Gvar { d with Ast.v_loc = Loc.none; v_init = None })
    | Ast.Gtypedef (n, t, _) -> Decl (Ast.Gtypedef (n, t, Loc.none))
    | Ast.Gstruct (n, fs, _) -> Decl (Ast.Gstruct (n, fs, Loc.none))
    | Ast.Gunion (n, fs, _) -> Decl (Ast.Gunion (n, fs, Loc.none))
    | Ast.Genum (n, cs, _) -> Decl (Ast.Genum (n, cs, Loc.none))
    | Ast.Gfunc_decl (n, r, ps, _) ->
      Decl (Ast.Gfunc_decl (n, r, ps, Loc.none))
  in
  let items = List.map (fun tu -> List.map item tu.Ast.tu_globals) tus in
  Digest.to_hex
    (Digest.string (Marshal.to_string items [ Marshal.No_sharing ]))

type prepared = {
  p_job : job;
  p_ctx : Registry.ctx;
  p_funcs : Ast.func array;  (** every function, in source order *)
  p_sdigest : string Lazy.t;
  p_edigest : string Lazy.t;
}

let prepare (j : job) : prepared =
  {
    p_job = j;
    p_ctx = Registry.make_ctx j.tus;
    p_funcs = Array.of_list (List.concat_map Ast.functions j.tus);
    p_sdigest = lazy (spec_digest j.spec);
    p_edigest = lazy (env_digest j.tus);
  }

(* The dependency set of a whole-program checker: every function the
   callgraph can reach from the spec's handlers, digested in sorted name
   order.  Each name stands for the definition {!Callgraph.find_func}
   returns, the one the checker analyses.  Functions outside the closure
   do not appear, so edits to them leave the key — and the cached
   result — valid; a function without a source digest inside it leaves
   the unit without a key. *)
let global_key (p : prepared) (c : Registry.checker) : string option =
  let cg = Lazy.force p.p_ctx.Registry.callgraph in
  let roots =
    List.map
      (fun (h : Flash_api.handler_spec) -> h.Flash_api.h_name)
      p.p_job.spec.Flash_api.p_handlers
  in
  let rec parts acc = function
    | [] -> Some (String.concat ";" (List.rev acc))
    | n :: rest -> (
      match
        Option.bind (Callgraph.find_func cg n) (fun f ->
            func_key f.Ast.f_loc.Loc.file f)
      with
      | Some d -> parts ((n ^ "=" ^ d) :: acc) rest
      | None -> None)
  in
  Option.map
    (fun parts ->
      Printf.sprintf "%s@%s@%s@%s" c.Registry.name
        (Lazy.force p.p_sdigest) (Lazy.force p.p_edigest)
        (Digest.to_hex (Digest.string parts)))
    (parts [] (Callgraph.reachable_from cg roots))

let batch_key ~pf_digest (p : prepared) (f : Ast.func) : string option =
  Option.map
    (Printf.sprintf "fnbatch@%s@%s@%s@%s" pf_digest
       (Lazy.force p.p_sdigest) (Lazy.force p.p_edigest))
    (func_key f.Ast.f_loc.Loc.file f)

(* every unit scheduled is one probe of the unit cache, when there is
   one *)
let m_units_total =
  Mcobs.counter ~help:"Mcd unit cache probes"
    "mcheck_unit_cache_probes_total"

let m_units_hit =
  Mcobs.counter ~help:"Mcd unit cache hits" "mcheck_unit_cache_hits_total"

let m_units_run =
  Mcobs.counter ~help:"Mcd units executed (cache misses)"
    "mcheck_units_run_total"

let m_units_faulted =
  Mcobs.counter ~help:"units ended by the per-unit fault barrier"
    "mcheck_units_faulted_total"

let m_checker_faults = Mcobs.counter "mcd.unit.checker_faults"
let m_queue_wait_ms = Mcobs.hist "mcd.queue_wait_ms"

let check_jobs ?cache ?(budget = Engine.no_budget)
    ?(checkers = Registry.all) ~jobs (job_list : job list) :
    (string * Diag.t list) list list * stats =
  (* one wall measurement, on the Mcobs clock: it produces both the
     [mcd.schedule] span and [stats.wall_ms] *)
  let t0 = Mcobs.now_us () in
  (* the whole-program checkers, in list order, are the last units of
     every job *)
  let per_function, globals =
    List.partition Registry.is_per_function checkers
  in
  let globals = Array.of_list globals in
  let n_global = Array.length globals in
  let pf_digest = pf_set_digest per_function in
  let prepared =
    Mcobs.with_span "mcd.prepare" (fun () ->
        Array.of_list (List.map prepare job_list))
  in
  (* the canonical slot layout: job [ji]'s units start at [base.(ji)] —
     its function batches in source order, then its whole-program
     checkers in registry order *)
  let base = Array.make (Array.length prepared + 1) 0 in
  Array.iteri
    (fun ji p -> base.(ji + 1) <- base.(ji) + Array.length p.p_funcs + n_global)
    prepared;
  let total = base.(Array.length prepared) in
  (* a slot holds one unit's per-checker slices: one per per-function
     checker for a function batch, one for a whole-program unit *)
  let results : Diag.t list array array = Array.make total [||] in
  (* per-slot fault diagnostics ([checker = "internal"]): written only
     by the worker that owns the slot, like [results] — non-empty means
     the unit degraded and its result must not be cached *)
  let faults : Diag.t list array = Array.make total [] in
  (* resolve cache hits up front, in the coordinating domain; only the
     misses become pool tasks.  A miss's task is wrapped in an
     [mcd.unit] span carrying its (checker, unit) identity, plus a
     queue-wait histogram sample measured from scheduling to execution
     start on whichever domain picks it up. *)
  let hits = ref 0 in
  let miss_slots = ref [] in
  let miss_keys = ref [] in
  (* a miss's task takes the staged checkers (sized after the domain
     clamp below) and the worker index *)
  let consider ~slot ~cname ~uname key_of run_of =
    (* no cache, no digest; a unit without a key runs and is not stored *)
    let key = Option.bind cache (fun _ -> key_of ()) in
    match Option.bind cache (fun c -> Option.bind key (Mcd_cache.find c)) with
    | Some slices ->
      results.(slot) <- slices;
      incr hits
    | None ->
      let run_of =
        if Mcobs.enabled () then begin
          let enqueued_us = Mcobs.now_us () in
          fun stagings worker ->
            Mcobs.observe m_queue_wait_ms
              ((Mcobs.now_us () -. enqueued_us) /. 1000.);
            Mcobs.with_span "mcd.unit"
              ~args:[ ("checker", cname); ("unit", uname) ]
              (fun () -> run_of stagings worker)
        end
        else run_of
      in
      miss_slots := (slot, run_of) :: !miss_slots;
      Option.iter (fun k -> miss_keys := (slot, k) :: !miss_keys) key
  in
  (* every unit runs the [Registry] kernel, whose fault barrier keeps a
     crashing or over-budget checker inside its unit: the pool keeps
     draining, and a faulted slot is never cached *)
  let store ~slot (slices, fs) =
    results.(slot) <- slices;
    faults.(slot) <- fs;
    if fs <> [] then Mcobs.inc ~by:(List.length fs) m_checker_faults
  in
  let run_batch ~slot ~job ~fn stagings worker =
    store ~slot
      (Registry.check_function stagings.(worker).(job) ~budget
         prepared.(job).p_funcs.(fn))
  in
  let run_global ~slot ~job ~global _stagings _worker =
    let p = prepared.(job) in
    let slice, fs =
      Registry.check_whole_program ~budget globals.(global)
        ~spec:p.p_job.spec p.p_job.tus
    in
    store ~slot ([| slice |], fs)
  in
  (* tasks are claimed in the order they are considered: the
     whole-program units go first, since each is one long task that,
     claimed last, would leave the other domains idle while it runs *)
  Mcobs.with_span "mcd.resolve" (fun () ->
      Array.iteri
        (fun job p ->
          let nf = Array.length p.p_funcs in
          Array.iteri
            (fun global (c : Registry.checker) ->
              let slot = base.(job) + nf + global in
              consider ~slot ~cname:c.Registry.name ~uname:"<whole-program>"
                (fun () -> global_key p c)
                (run_global ~slot ~job ~global))
            globals)
        prepared;
      Array.iteri
        (fun job p ->
          Array.iteri
            (fun fn (f : Ast.func) ->
              let slot = base.(job) + fn in
              consider ~slot ~cname:"fnbatch" ~uname:f.Ast.f_name
                (fun () -> batch_key ~pf_digest p f)
                (run_batch ~slot ~job ~fn))
            p.p_funcs)
        prepared);
  (* never spawn more domains than the host has cores, nor than there
     are units to run: extra domains only add minor-GC contention, so
     [--jobs 4] on a 1-core box, or a warm re-check that runs nothing,
     degrades to the sequential loop *)
  let n_tasks = List.length !miss_slots in
  let domains =
    max 1 (min (min jobs (Domain.recommended_domain_count ())) n_tasks)
  in
  (* Staged per-function checkers (closures, state-machine dispatch
     memos, annotation tables) are domain-local: pool worker [w] stages
     job [j] on first use into [stagings.(w).(j)], so spec-dependent
     machines compile once per (worker, job) and never cross domains.
     The array dies with the call. *)
  let stagings =
    Array.init domains (fun _ ->
        Array.map
          (fun p -> Registry.stage ~checkers ~spec:p.p_job.spec ~ctx:p.p_ctx)
          prepared)
  in
  let tasks =
    Array.of_list (List.rev_map (fun (_, run) -> run stagings) !miss_slots)
  in
  (* chunked claiming: aim for ~8 chunks per worker so the tail still
     balances while the cursor is touched rarely *)
  let chunk = max 1 (Array.length tasks / (domains * 8)) in
  let worker_stats =
    Mcobs.with_span "mcd.pool"
      ~args:
        [
          ("domains", string_of_int domains);
          ("tasks", string_of_int (Array.length tasks));
          ("chunk", string_of_int chunk);
        ]
      (fun () -> Mcd_pool.run ~chunk ~domains tasks)
  in
  (* store the fresh results; done after the join so the cache is only
     ever touched from this domain.  Faulted slots are not stored: a
     degraded slice must not impersonate a clean result on the next
     run. *)
  (match cache with
  | Some c ->
    Mcobs.with_span "mcd.store" (fun () ->
        List.iter
          (fun (slot, key) ->
            if faults.(slot) = [] then Mcd_cache.add c key results.(slot))
          !miss_keys)
  | None -> ());
  (* reassemble in canonical order: identical to the sequential run *)
  let out =
    Mcobs.with_span "mcd.reassemble" (fun () ->
        Array.mapi
          (fun job p ->
            let nf = Array.length p.p_funcs in
            let slots k n = List.init n (fun i -> base.(job) + k + i) in
            Registry.assemble ~checkers
              ~per_function:(List.map (Array.get results) (slots 0 nf))
              ~whole_program:
                (List.map (fun s -> results.(s).(0)) (slots nf n_global))
              ~faults:
                (List.concat_map (Array.get faults) (slots 0 (nf + n_global))))
          prepared)
  in
  let dur_us = Mcobs.now_us () -. t0 in
  (* the ambient request trace (when a daemon set one) is recorded on
     every span already; naming it in the args makes the scheduler the
     visible join point between server-side spans and the worker spans
     harvested after the pool joins *)
  Mcobs.record_span ~name:"mcd.schedule"
    ~args:
      (("units", string_of_int total)
       :: ("hits", string_of_int !hits)
       :: ("domains", string_of_int domains)
       ::
       (match Mcobs.current_trace () with
       | "" -> []
       | trace -> [ ("trace", trace) ]))
    ~begin_us:t0 ~dur_us ();
  let units_faulted =
    Array.fold_left (fun acc fs -> if fs = [] then acc else acc + 1) 0 faults
  in
  let workers_crashed =
    Array.fold_left
      (fun acc (w : Mcd_pool.worker_stats) ->
        if w.Mcd_pool.crashed then acc + 1 else acc)
      0 worker_stats
  in
  (* the scheduler's outcome, counted here and nowhere else; the stats
     record is the same numbers, for this call *)
  Mcobs.inc ~by:total m_units_total;
  Mcobs.inc ~by:n_tasks m_units_run;
  Mcobs.inc ~by:!hits m_units_hit;
  Mcobs.inc ~by:units_faulted m_units_faulted;
  let stats =
    {
      units_total = total;
      units_run = n_tasks;
      cache_hits = !hits;
      units_faulted;
      workers_crashed;
      domains;
      workers = worker_stats;
      wall_ms = dur_us /. 1000.;
    }
  in
  (Array.to_list out, stats)

(** Check one protocol; the result pairs are exactly
    [Registry.run_all ~spec tus]. *)
let check_corpus ?cache ?budget ~jobs ~spec (tus : Ast.tunit list) :
    (string * Diag.t list) list * stats =
  match check_jobs ?cache ?budget ~jobs [ { spec; tus } ] with
  | [ r ], stats -> (r, stats)
  | _ -> assert false

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "%d unit(s): %d run, %d cached; %d domain(s), %.1f ms wall"
    s.units_total s.units_run s.cache_hits s.domains s.wall_ms;
  Array.iteri
    (fun i (w : Mcd_pool.worker_stats) ->
      Format.fprintf ppf "@\n  domain %d: %d unit(s), %.1f ms" i
        w.Mcd_pool.tasks_done w.Mcd_pool.wall_ms)
    s.workers

(* The one-line summary mcheck prints by default after a --jobs or
   --incremental run: cache-hit rate plus parallel efficiency (total
   domain busy time over wall time). *)
let pp_stats_line ppf (s : stats) =
  let busy_ms =
    Array.fold_left
      (fun acc (w : Mcd_pool.worker_stats) -> acc +. w.Mcd_pool.wall_ms)
      0. s.workers
  in
  let hit_pct =
    if s.units_total = 0 then 0.
    else 100. *. float_of_int s.cache_hits /. float_of_int s.units_total
  in
  Format.fprintf ppf
    "mcd: %d unit(s), %d cached (%.1f%% hit), %d run on %d domain(s); \
     %.1f ms wall, %.2fx parallel efficiency"
    s.units_total s.cache_hits hit_pct s.units_run s.domains s.wall_ms
    (if s.wall_ms > 0. then busy_ms /. s.wall_ms else 0.);
  if s.units_faulted > 0 then
    Format.fprintf ppf "; %d unit(s) DEGRADED" s.units_faulted;
  if s.workers_crashed > 0 then
    Format.fprintf ppf "; %d worker(s) crashed and re-claimed"
      s.workers_crashed
