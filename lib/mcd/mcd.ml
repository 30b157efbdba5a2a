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
    {!Typecheck} its types and the parser its typedef names; it is a
    digest of each file's interface digest ({!Iface.env_digest}).  The key
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
    leaves the unit without one.

    Every part of every key comes from the files' {!Iface.t}: each
    function's key and callee names, each file's interface digest.  A
    warm re-check hands those facts over from its cache index, so keys
    are resolved without an AST; only then are the units obtained, and
    only those of the files a missed function batch reads.  A missed
    whole-program unit is the checker's global pass over flow graphs
    ({!Registry.local_pass}), the paper's link step: a warm re-check's
    caller hands over every file's graphs, which it keeps beside the
    units, and a program held in memory computes a function's graph
    when the pass reaches it.  A program held in memory derives the
    same facts from its units when there is a cache. *)

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

let func_digest file f = Option.value (Iface.func_key file f) ~default:""

(* A program as the scheduler takes it: its spec, the units it holds
   ([None]: ask [pg_fetch]), where its flow graphs come from ([None]:
   the held units) and, when the caller has them, every file's
   interface and function facts. *)
type program = {
  pg_spec : Flash_api.spec;
  pg_units : Ast.tunit option array;
  pg_facts : Iface.t array option;
  pg_fetch : int list -> Ast.tunit list;
  pg_locals : (int list -> Registry.local array list) option;
}

let of_job (j : job) =
  {
    pg_spec = j.spec;
    pg_units = Array.of_list (List.map Option.some j.tus);
    pg_facts = None;
    pg_fetch = (fun _ -> invalid_arg "Mcd.of_job: every unit is held");
    pg_locals = None;
  }

let indexed ~spec files ~fetch ~locals =
  {
    pg_spec = spec;
    pg_units = Array.make (Array.length files) None;
    pg_facts = Some files;
    pg_fetch = fetch;
    pg_locals = Some locals;
  }

(* what every key of a program is made of: its functions' facts in
   source order, the spec digest and the env digest *)
type keys = {
  k_funcs : Iface.func_fact array;
  k_spec : string;
  k_env : string;
}

type prepared = {
  p_prog : program;
  p_units : Ast.tunit option array;  (** the units held so far *)
  p_first : int array;
      (** file [i]'s functions are [p_first.(i) .. p_first.(i + 1) - 1] *)
  p_file : int array;  (** the file of every function, source order *)
  p_funcs : Ast.func option array;  (** every function of a held unit *)
  p_locals : Registry.local array option array;
      (** a file's flow graphs, its functions' in source order, once a
          whole-program unit needs them and [pg_locals] gave them *)
  p_keys : keys option;  (** with a cache only *)
}

let hold (p : prepared) i (tu : Ast.tunit) =
  let fs = Ast.functions tu in
  if List.length fs <> p.p_first.(i + 1) - p.p_first.(i) then
    invalid_arg "Mcd: a fetched unit does not match its facts";
  p.p_units.(i) <- Some tu;
  List.iteri (fun k f -> p.p_funcs.(p.p_first.(i) + k) <- Some f) fs

let hold_locals (p : prepared) i (locals : Registry.local array) =
  if Array.length locals <> p.p_first.(i + 1) - p.p_first.(i) then
    invalid_arg "Mcd: fetched flow graphs do not match their facts";
  p.p_locals.(i) <- Some locals

let func_name (p : prepared) fn =
  match (p.p_funcs.(fn), p.p_keys) with
  | Some f, _ -> f.Ast.f_name
  | None, Some k -> k.k_funcs.(fn).Iface.ff_name
  | None, None -> assert false

(* The flow graphs a whole-program unit links, by name, each name
   standing for its last definition as {!Callgraph.find_func} picks it:
   the fetched graphs, or, in a program held in memory, the function's
   own, computed when the global pass asks for it. *)
let locals_lookup (p : prepared) =
  let defs = Hashtbl.create (Array.length p.p_funcs) in
  Array.iteri (fun fn _ -> Hashtbl.replace defs (func_name p fn) fn) p.p_funcs;
  fun name ->
    Option.map
      (fun fn ->
        let file = p.p_file.(fn) in
        match p.p_locals.(file) with
        | Some locals -> locals.(fn - p.p_first.(file))
        | None -> Registry.local_pass (Option.get p.p_funcs.(fn)))
      (Hashtbl.find_opt defs name)

(* Without a cache nothing is digested.  With one, a program that came
   with its facts (a warm re-check's index) keys every unit without an
   AST; one that did not gets them from the units it holds. *)
let prepare ~cached (pg : program) : prepared =
  let facts =
    match pg.pg_facts with
    | Some _ as facts -> facts
    | None when cached ->
      Some (Array.map (fun u -> Iface.of_tunit (Option.get u)) pg.pg_units)
    | None -> None
  in
  (* an {!indexed} program always has its facts *)
  let count i u =
    match (facts, u) with
    | Some facts, _ -> Array.length facts.(i).Iface.i_funcs
    | None, Some tu -> List.length (Ast.functions tu)
    | None, None -> assert false
  in
  let n = Array.length pg.pg_units in
  let p_first = Array.make (n + 1) 0 in
  Array.iteri
    (fun i u -> p_first.(i + 1) <- p_first.(i) + count i u)
    pg.pg_units;
  let p =
    {
      p_prog = pg;
      p_units = Array.make n None;
      p_first;
      p_file =
        Array.concat
          (List.init n (fun i -> Array.make (p_first.(i + 1) - p_first.(i)) i));
      p_funcs = Array.make p_first.(n) None;
      p_locals = Array.make n None;
      p_keys =
        Option.map
          (fun facts ->
            {
              k_funcs =
                Array.concat
                  (Array.to_list (Array.map (fun f -> f.Iface.i_funcs) facts));
              k_spec = spec_digest pg.pg_spec;
              k_env = Iface.env_digest (Array.to_list facts);
            })
          (if cached then facts else None);
    }
  in
  Array.iteri (fun i u -> Option.iter (hold p i) u) pg.pg_units;
  p

(* The dependency set of a whole-program checker: every function the
   callgraph can reach from the spec's handlers, digested in sorted name
   order.  Each name stands for its last definition, the one
   {!Callgraph.find_func} returns and the checker analyses; the facts
   carry each definition's callees, so no AST is walked.  Functions
   outside the closure do not appear, so edits to them leave the key —
   and the cached result — valid; a function without a source digest
   inside it leaves the unit without a key. *)
let global_key (p : prepared) (k : keys) (c : Registry.checker) :
    string option =
  let defs = Hashtbl.create 256 in
  Array.iter
    (fun (ff : Iface.func_fact) -> Hashtbl.replace defs ff.Iface.ff_name ff)
    k.k_funcs;
  let seen = Hashtbl.create 64 in
  let rec reach name =
    if not (Hashtbl.mem seen name) then
      match Hashtbl.find_opt defs name with
      | Some (ff : Iface.func_fact) ->
        Hashtbl.replace seen name ff.Iface.ff_key;
        List.iter reach ff.Iface.ff_callees
      | None -> ()
  in
  List.iter
    (fun (h : Flash_api.handler_spec) -> reach h.Flash_api.h_name)
    p.p_prog.pg_spec.Flash_api.p_handlers;
  let rec parts acc = function
    | [] -> Some (String.concat ";" (List.rev acc))
    | (n, Some d) :: rest -> parts ((n ^ "=" ^ d) :: acc) rest
    | (_, None) :: _ -> None
  in
  Option.map
    (fun parts ->
      Printf.sprintf "%s@%s@%s@%s" c.Registry.name k.k_spec k.k_env
        (Digest.to_hex (Digest.string parts)))
    (parts []
       (List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (List.of_seq (Hashtbl.to_seq seen))))

let batch_key ~pf_digest (k : keys) fn : string option =
  Option.map
    (Printf.sprintf "fnbatch@%s@%s@%s@%s" pf_digest k.k_spec k.k_env)
    k.k_funcs.(fn).Iface.ff_key

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

let check_programs ?cache ?(budget = Engine.no_budget)
    ?(checkers = Registry.all) ~jobs (programs : program list) :
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
        Array.of_list
          (List.map (prepare ~cached:(cache <> None)) programs))
  in
  (* the canonical slot layout: job [ji]'s units start at [base.(ji)] —
     its function batches in source order, then its whole-program
     checkers in registry order *)
  let base = Array.make (Array.length prepared + 1) 0 in
  Array.iteri
    (fun ji p ->
      base.(ji + 1) <- base.(ji) + Array.length p.p_funcs + n_global)
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
  (* what each job's missed units read: a function batch its own
     file, a whole-program unit every file's flow graphs *)
  let needed =
    Array.map (fun p -> Array.make (Array.length p.p_units) false) prepared
  in
  let needs_locals = Array.make (Array.length prepared) false in
  (* a miss's task takes the staged checkers (sized after the domain
     clamp below) and the worker index *)
  let consider ~slot ~cname ~uname ~needs key_of run_of =
    (* no cache, no digest; a unit without a key runs and is not stored *)
    let key = Option.bind cache (fun _ -> key_of ()) in
    match Option.bind cache (fun c -> Option.bind key (Mcd_cache.find c)) with
    | Some slices ->
      results.(slot) <- slices;
      incr hits
    | None ->
      needs ();
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
         (Option.get prepared.(job).p_funcs.(fn)))
  in
  let run_global ~slot ~job ~global _stagings _worker =
    let p = prepared.(job) in
    let slice, fs =
      Registry.check_whole_program ~budget globals.(global)
        ~spec:p.p_prog.pg_spec (locals_lookup p)
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
                ~needs:(fun () -> needs_locals.(job) <- true)
                (fun () -> Option.bind p.p_keys (fun k -> global_key p k c))
                (run_global ~slot ~job ~global))
            globals)
        prepared;
      Array.iteri
        (fun job p ->
          for fn = 0 to Array.length p.p_funcs - 1 do
            let slot = base.(job) + fn in
            consider ~slot ~cname:"fnbatch" ~uname:(func_name p fn)
              ~needs:(fun () -> needed.(job).(p.p_file.(fn)) <- true)
              (fun () ->
                Option.bind p.p_keys (fun k -> batch_key ~pf_digest k fn))
              (run_batch ~slot ~job ~fn)
          done)
        prepared);
  (* only now are ASTs obtained, and only the files the missed
     function batches read; a missed whole-program unit then needs
     every file's flow graphs.  Each job's caller decodes both (on the
     pool) before any unit runs. *)
  Array.iteri
    (fun job p ->
      let files = List.init (Array.length p.p_units) Fun.id in
      let missing =
        List.filter (fun i -> needed.(job).(i) && p.p_units.(i) = None) files
      in
      if missing <> [] then
        List.iter2 (hold p) missing (p.p_prog.pg_fetch missing);
      match p.p_prog.pg_locals with
      | Some locals when needs_locals.(job) ->
        List.iter2 (hold_locals p) files (locals files)
      | _ -> ())
    prepared;
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
  let ctxs =
    Array.map
      (fun p ->
        Registry.make_ctx (List.filter_map Fun.id (Array.to_list p.p_units)))
      prepared
  in
  let stagings =
    Array.init domains (fun _ ->
        Array.mapi
          (fun job p ->
            Registry.stage ~checkers ~spec:p.p_prog.pg_spec ~ctx:ctxs.(job))
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
      (fun () -> Mcd_pool.run ~phase:"units" ~chunk ~domains tasks)
  in
  (* store the fresh results; done after the pool returns so the cache
     is only ever touched from this domain.  Faulted slots are not
     stored: a degraded slice must not impersonate a clean result on
     the next run. *)
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
     harvested after the pool returns *)
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
let check_jobs ?cache ?budget ?checkers ~jobs (job_list : job list) =
  check_programs ?cache ?budget ?checkers ~jobs (List.map of_job job_list)

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
