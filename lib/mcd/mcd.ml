(** Mcd — the meta-checking daemon core.

    Schedules function-batched work units across OCaml 5 domains and
    caches unit results by content hash, so a corpus re-check after
    editing one handler only re-runs the affected units.

    {2 Scheduling model}

    The two-phase checker API ({!Registry.phase}) is what makes the unit
    decomposition sound: every intra-procedural checker runs its state
    machine over one function CFG at a time with no shared state.  A work
    unit is one *function batch*: all per-function checkers run back to
    back over one shared {!Prep.t}, so the CFG and event arrays are built
    once per function per run instead of once per (checker x function)
    pair — and a unit is big enough that scheduling overhead cannot
    dominate it.  A [Whole_program] checker ([lanes]) contributes a
    single unit of its own.  Units are claimed in chunks from an
    {!Mcd_pool} atomic cursor by worker domains, and every unit writes
    into a pre-assigned result slot; reassembly walks the slots in the
    canonical (job, function) order and applies each checker's
    [finalize], so the output is diagnostic-for-diagnostic identical —
    including order — to the sequential [Registry.run_all], whatever the
    domain count.

    {2 Hashing and invalidation}

    A function batch's cache key is
    [fnbatch @ digest(per-function checker set) @ digest(spec)
     @ digest(file:loc:pretty-printed AST)].  The key covers everything
    the result depends on, so invalidation is automatic: editing a
    function changes its digest and the unit misses; every untouched
    function hits.  A whole-program unit's key replaces the function
    digest with a digest of the checker's *dependency set* — the
    callgraph closure reachable from the spec's handlers — so an edit
    anywhere in that closure (equivalently: any function whose
    reverse-dependency closure meets a handler) re-runs the
    inter-procedural checker, and an edit to dead code does not. *)

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

let checkers = Array.of_list Registry.all

(* indices into [checkers] of the per-function checkers, registry
   order — the order of slices within a batch unit's result *)
let pf_indices : int array =
  checkers
  |> Array.to_seqi
  |> Seq.filter_map (fun (i, (c : Registry.checker)) ->
         match c.Registry.phase with
         | Registry.Per_function _ -> Some i
         | Registry.Whole_program _ -> None)
  |> Array.of_seq

let n_pf = Array.length pf_indices

(* the checker-set half of every batch key: a batch result is only
   reusable by a run scheduling the same per-function checkers in the
   same order *)
let pf_set_digest : string =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (List.map
             (fun i -> checkers.(i).Registry.name)
             (Array.to_list pf_indices))))

let spec_digest (spec : Flash_api.spec) : string =
  Digest.to_hex (Digest.string (Marshal.to_string spec []))

(* [file] and the function's own location are part of the key: two
   textually identical functions in different places must not share
   diagnostics, whose locations differ.  (Inner locations that shift
   while the function text *and* its start location stay identical are
   not covered — post-cpp text, the paper's input, cannot do that.) *)
let func_digest (file : string) (f : Ast.func) : string =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s:%d:%d:%s" file f.Ast.f_loc.Loc.line
          f.Ast.f_loc.Loc.col
          (Format.asprintf "%a" Pp.pp_func f)))

type prepared = {
  p_job : job;
  p_ctx : Registry.ctx;
  p_funcs : Ast.func array;  (** every function, in source order *)
  p_fdigests : string array Lazy.t;
  p_sdigest : string Lazy.t;
}

let prepare (j : job) : prepared =
  let with_files =
    List.concat_map
      (fun tu ->
        List.map (fun f -> (tu.Ast.tu_file, f)) (Ast.functions tu))
      j.tus
  in
  let funcs = Array.of_list (List.map snd with_files) in
  let files = Array.of_list (List.map fst with_files) in
  {
    p_job = j;
    p_ctx = Registry.make_ctx j.tus;
    p_funcs = funcs;
    p_fdigests =
      lazy (Array.mapi (fun i f -> func_digest files.(i) f) funcs);
    p_sdigest = lazy (spec_digest j.spec);
  }

(* The dependency set of a whole-program checker: every function the
   callgraph can reach from the spec's handlers, digested in sorted name
   order.  Functions outside the closure do not appear, so edits to them
   leave the key — and the cached result — valid. *)
let global_key (p : prepared) (c : Registry.checker) : string =
  let cg = Lazy.force p.p_ctx.Registry.callgraph in
  let roots =
    List.map
      (fun (h : Flash_api.handler_spec) -> h.Flash_api.h_name)
      p.p_job.spec.Flash_api.p_handlers
  in
  let reach =
    List.sort_uniq String.compare (Callgraph.reachable_from cg roots)
  in
  let digests = Lazy.force p.p_fdigests in
  let by_name = Hashtbl.create (Array.length p.p_funcs) in
  Array.iteri
    (fun i (f : Ast.func) ->
      if not (Hashtbl.mem by_name f.Ast.f_name) then
        Hashtbl.add by_name f.Ast.f_name digests.(i))
    p.p_funcs;
  let parts =
    List.map
      (fun n ->
        n ^ "="
        ^ Option.value (Hashtbl.find_opt by_name n) ~default:"undef")
      reach
  in
  Printf.sprintf "%s@%s@%s" c.Registry.name
    (Lazy.force p.p_sdigest)
    (Digest.to_hex (Digest.string (String.concat ";" parts)))

let batch_key (p : prepared) (fi : int) : string =
  Printf.sprintf "fnbatch@%s@%s@%s" pf_set_digest
    (Lazy.force p.p_sdigest)
    (Lazy.force p.p_fdigests).(fi)

(* Walk every work unit in the canonical (job, function batch, global
   checker) order, assigning consecutive slots.  Used twice — once to
   build the schedule, once to reassemble — so the orders cannot drift
   apart. *)
let iter_units (prepared : prepared array)
    (per_batch : slot:int -> job:int -> fn:int -> unit)
    (global : slot:int -> job:int -> checker:int -> unit) : int =
  let slot = ref 0 in
  Array.iteri
    (fun ji p ->
      Array.iteri
        (fun fi _ ->
          per_batch ~slot:!slot ~job:ji ~fn:fi;
          incr slot)
        p.p_funcs;
      Array.iteri
        (fun ci (c : Registry.checker) ->
          match c.Registry.phase with
          | Registry.Whole_program _ ->
            global ~slot:!slot ~job:ji ~checker:ci;
            incr slot
          | Registry.Per_function _ -> ())
        checkers)
    prepared;
  !slot

let describe_fault = Engine.describe_fault

let check_jobs ?cache ?(budget = Engine.no_budget) ~jobs
    (job_list : job list) : (string * Diag.t list) list list * stats =
  (* one wall measurement, on the Mcobs clock: it produces both the
     [mcd.schedule] span and [stats.wall_ms] *)
  let t0 = Mcobs.now_us () in
  let prepared =
    Mcobs.with_span "mcd.prepare" (fun () ->
        Array.of_list (List.map prepare job_list))
  in
  let total =
    iter_units prepared
      (fun ~slot:_ ~job:_ ~fn:_ -> ())
      (fun ~slot:_ ~job:_ ~checker:_ -> ())
  in
  (* a slot holds one unit's per-checker slices: [n_pf] for a function
     batch, one for a whole-program unit *)
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
  let consider ~slot ~cname ~uname key_of run_of =
    match Option.bind cache (fun c -> Mcd_cache.find c (key_of ())) with
    | Some slices ->
      results.(slot) <- slices;
      incr hits
    | None ->
      let run_of =
        if Mcobs.enabled () then begin
          let enqueued_us = Mcobs.now_us () in
          fun () ->
            Mcobs.observe "mcd.queue_wait_ms"
              ((Mcobs.now_us () -. enqueued_us) /. 1000.);
            Mcobs.with_span "mcd.unit"
              ~args:[ ("checker", cname); ("unit", uname) ]
              run_of
        end
        else run_of
      in
      miss_slots := (slot, run_of) :: !miss_slots;
      if cache <> None then miss_keys := (slot, key_of ()) :: !miss_keys
  in
  (* staged per-function closures are domain-local: a fresh DLS key per
     call keeps one staging table per worker, so spec-dependent state
     machines compile once per (domain, job) and are never shared across
     domains.  Alongside the per-checker closures we stage the product
     machines: a batch first runs the composed product walk, and only
     the checkers whose machine turned dirty (or that have no machine)
     re-run individually — same detect-then-rerun contract as
     [Registry.run_all_product], so the slices stay byte-identical. *)
  let stage_key :
      (int, (Prep.t -> Diag.t list) array * Engine.pmachine option array)
      Hashtbl.t
      Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Hashtbl.create 8)
  in
  let staged ~job :
      (Prep.t -> Diag.t list) array * Engine.pmachine option array =
    let tbl = Domain.DLS.get stage_key in
    match Hashtbl.find_opt tbl job with
    | Some fns -> fns
    | None ->
      let p = prepared.(job) in
      let fns =
        Array.map
          (fun ci ->
            match checkers.(ci).Registry.phase with
            | Registry.Per_function { check_fn; _ } ->
              check_fn ~spec:p.p_job.spec ~ctx:p.p_ctx
            | Registry.Whole_program _ -> assert false)
          pf_indices
      in
      let machines =
        Array.map
          (fun ci ->
            match checkers.(ci).Registry.phase with
            | Registry.Per_function { product; _ } ->
              product ~spec:p.p_job.spec
            | Registry.Whole_program _ -> assert false)
          pf_indices
      in
      Hashtbl.add tbl job (fns, machines);
      (fns, machines)
  in
  (* The per-unit fault barrier.  Each checker within a batch runs under
     the unit budget; an exception (checker bug, injected fault) or an
     exhausted budget is converted into an ["internal"] diagnostic and a
     degraded flow-insensitive retry, and the unit completes either way —
     the pool keeps draining, the other checkers of the batch are
     untouched, and the faulted slot is never cached. *)
  let fault ~loc ~func msg =
    Mcobs.count "mcd.unit.checker_faults";
    Diag.make ~severity:Diag.Warning ~checker:"internal" ~loc ~func msg
  in
  let run_batch ~slot ~job ~fn () =
    let p = prepared.(job) in
    let f = p.p_funcs.(fn) in
    match
      let fns = staged ~job in
      let prep = Prep.build f in
      (fns, prep)
    with
    | exception exn ->
      (* the batch never got off the ground: empty slices for every
         checker, one fault covering the whole unit *)
      results.(slot) <- Array.make n_pf [];
      faults.(slot) <-
        [
          fault ~loc:f.Ast.f_loc ~func:f.Ast.f_name
            (Printf.sprintf "function batch could not be prepared (%s); \
                             all checkers skipped for this function"
               (describe_fault exn));
        ]
    | (fns, machines), prep ->
      let out = Array.make n_pf [] in
      let unit_faults = ref [] in
      (* Product fast path: one composed walk detects which machines
         are dirty; clean machine-backed checkers are done (their slice
         is [] by construction).  Only legal when nothing can interfere
         with per-checker semantics — a real budget, degraded mode or
         an armed fault hook sends every checker down the ordinary
         per-checker path, exactly like [Registry.run_all_product]. *)
      let needs_run = Array.make n_pf true in
      if budget = Engine.no_budget && not (Engine.containment_active ())
      then begin
        let idx = ref [] and ms = ref [] in
        Array.iteri
          (fun k m ->
            match m with
            | Some pm ->
              idx := k :: !idx;
              ms := pm :: !ms
            | None -> ())
          machines;
        let pms = Array.of_list (List.rev !ms) in
        let ks = Array.of_list (List.rev !idx) in
        match Engine.product_scan prep pms with
        | dirty ->
          Array.iteri
            (fun mi k -> if not dirty.(mi) then needs_run.(k) <- false)
            ks
        | exception _ ->
          (* overflow or a machine crash: every checker re-runs, and
             any real fault surfaces through its own barrier below *)
          ()
      end;
      Array.iteri
        (fun k chk ->
          if needs_run.(k) then
            match Engine.with_budget budget (fun () -> chk prep) with
            | slices -> out.(k) <- slices
            | exception exn ->
              let cname = checkers.(pf_indices.(k)).Registry.name in
              unit_faults :=
                fault ~loc:f.Ast.f_loc ~func:f.Ast.f_name
                  (Printf.sprintf
                     "checker %s failed (%s); a degraded flow-insensitive \
                      pass was substituted"
                     cname (describe_fault exn))
                :: !unit_faults;
              out.(k) <-
                (try Engine.with_degraded (fun () -> chk prep)
                 with _ -> []))
        fns;
      results.(slot) <- out;
      faults.(slot) <- List.rev !unit_faults
  in
  let run_global ~slot ~job ~checker () =
    let p = prepared.(job) in
    match checkers.(checker).Registry.phase with
    | Registry.Whole_program g ->
      let go () = g ~spec:p.p_job.spec p.p_job.tus in
      (match Engine.with_budget budget go with
      | slice -> results.(slot) <- [| slice |]
      | exception exn ->
        faults.(slot) <-
          [
            fault ~loc:Loc.none ~func:"<whole-program>"
              (Printf.sprintf
                 "whole-program checker %s failed (%s); a degraded \
                  flow-insensitive pass was substituted"
                 checkers.(checker).Registry.name (describe_fault exn));
          ];
        results.(slot) <-
          [| (try Engine.with_degraded go with _ -> []) |])
    | Registry.Per_function _ -> assert false
  in
  Mcobs.with_span "mcd.resolve" (fun () ->
      ignore
        (iter_units prepared
           (fun ~slot ~job ~fn ->
             consider ~slot ~cname:"fnbatch"
               ~uname:prepared.(job).p_funcs.(fn).Ast.f_name
               (fun () -> batch_key prepared.(job) fn)
               (run_batch ~slot ~job ~fn))
           (fun ~slot ~job ~checker ->
             consider ~slot ~cname:checkers.(checker).Registry.name
               ~uname:"<whole-program>"
               (fun () -> global_key prepared.(job) checkers.(checker))
               (run_global ~slot ~job ~checker))));
  let tasks =
    Array.of_list (List.rev_map (fun (_, run) -> run) !miss_slots)
  in
  (* never spawn more domains than the host has cores: extra domains
     only add minor-GC contention, so requesting [--jobs 4] on a 1-core
     box must degrade to the sequential loop, not run slower than it *)
  let domains = min (max 1 jobs) (Domain.recommended_domain_count ()) in
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
  (* reassemble in canonical order: identical to the sequential run.
     [acc_pf.(k)] collects per-function slices for the k-th per-function
     checker, newest first; [acc_g.(ci)] holds a whole-program checker's
     single slice. *)
  let out = Array.make (Array.length prepared) [] in
  let acc_pf : Diag.t list list array = Array.make n_pf [] in
  let acc_g : Diag.t list array = Array.make (Array.length checkers) [] in
  (* a job's unit faults, newest first; a non-empty collection appends
     one ("internal", ...) entry to that job's result list — the clean
     path stays byte-identical to the sequential pipeline *)
  let acc_faults : Diag.t list list ref = ref [] in
  let flush_job ji =
    let pf_pos = ref 0 in
    let entries =
      Array.to_list
        (Array.map
           (fun (c : Registry.checker) ->
             match c.Registry.phase with
             | Registry.Per_function { finalize; _ } ->
               let k = !pf_pos in
               incr pf_pos;
               (c.Registry.name, finalize (List.concat (List.rev acc_pf.(k))))
             | Registry.Whole_program _ ->
               let ci =
                 (* position of [c] in [checkers]; whole-program checkers
                    are rare enough that a scan is fine *)
                 let rec find i =
                   if checkers.(i).Registry.name = c.Registry.name then i
                   else find (i + 1)
                 in
                 find 0
               in
               (c.Registry.name, acc_g.(ci)))
           checkers)
    in
    out.(ji) <-
      (match List.concat (List.rev !acc_faults) with
      | [] -> entries
      | fs -> entries @ [ ("internal", Diag.normalize fs) ]);
    acc_faults := [];
    Array.fill acc_pf 0 n_pf [];
    Array.fill acc_g 0 (Array.length acc_g) []
  in
  let current_job = ref 0 in
  let switch_to job =
    if job <> !current_job then begin
      flush_job !current_job;
      current_job := job
    end
  in
  Mcobs.with_span "mcd.reassemble" (fun () ->
      ignore
        (iter_units prepared
           (fun ~slot ~job ~fn:_ ->
             switch_to job;
             Array.iteri
               (fun k slice -> acc_pf.(k) <- slice :: acc_pf.(k))
               results.(slot);
             match faults.(slot) with
             | [] -> ()
             | fs -> acc_faults := fs :: !acc_faults)
           (fun ~slot ~job ~checker ->
             switch_to job;
             acc_g.(checker) <- results.(slot).(0);
             match faults.(slot) with
             | [] -> ()
             | fs -> acc_faults := fs :: !acc_faults));
      if Array.length prepared > 0 then flush_job !current_job);
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
  Mcobs.count ~by:total "mcd.units_total";
  Mcobs.count ~by:(Array.length tasks) "mcd.units_run";
  let units_faulted =
    Array.fold_left (fun acc fs -> if fs = [] then acc else acc + 1) 0 faults
  in
  let workers_crashed =
    Array.fold_left
      (fun acc (w : Mcd_pool.worker_stats) ->
        if w.Mcd_pool.crashed then acc + 1 else acc)
      0 worker_stats
  in
  if units_faulted > 0 then Mcobs.count ~by:units_faulted "mcd.units_faulted";
  let stats =
    {
      units_total = total;
      units_run = Array.length tasks;
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
