(* Mcheck_api — the session facade.  See the interface for the contract;
   the implementation is the pipeline wiring shared by bin/mcheck.ml,
   bin/mcheckd.ml, bin/mcfuzz.ml and bin/mcfault.ml. *)

type config = {
  jobs : int;
  incremental : bool;
  cache_file : string option;
  cache_dir : string option;
  budget : Engine.budget;
  strict : bool;
  checkers : string list;
  metal : (string * Registry.checker) list;
}

let default_config =
  {
    jobs = 1;
    incremental = false;
    cache_file = None;
    cache_dir = None;
    budget = Engine.no_budget;
    strict = false;
    checkers = [];
    metal = [];
  }

type report = {
  r_parse : Diag.t list;
  r_results : (string * Diag.t list) list;
  r_findings : int;
  r_outcome : Robust.outcome;
  r_sched : Mcd.stats;
}

let report_diags r = r.r_parse @ List.concat_map snd r.r_results

type render_opts = {
  ro_explain : bool;
  ro_verbose : bool;
  ro_quiet : bool;
}

(* --explain wins, then -v (with path) — the CLI's precedence *)
let render_diag opts d =
  if opts.ro_explain then Format.asprintf "%a@." Diag.pp_explain d
  else if opts.ro_verbose then Format.asprintf "%a@." Diag.pp_with_trace d
  else Format.asprintf "%a@." Diag.pp d

let print_report opts r =
  List.iter (fun d -> print_string (render_diag opts d)) (report_diags r);
  if r.r_findings = 0 && not opts.ro_quiet then
    print_string "no violations found\n";
  if r.r_outcome <> Robust.Clean && r.r_outcome <> Robust.Findings then
    Mcobs.logf Mcobs.Normal "mcheck: run was %s (exit %d)"
      (Robust.to_string r.r_outcome)
      (Robust.exit_code r.r_outcome)

exception Robust_exit of Robust.outcome

(* ------------------------------------------------------------------ *)
(* Shared wiring helpers                                               *)
(* ------------------------------------------------------------------ *)

(* the CLI's default protocol spec: without a protocol specification,
   treat every void/no-arg function as a hardware handler, which is what
   xg++'s default tables did *)
let default_spec (tus : Ast.tunit list) : Flash_api.spec =
  {
    Flash_api.p_name = "<cli>";
    p_handlers =
      List.concat_map
        (fun tu ->
          List.filter_map
            (fun (f : Ast.func) ->
              if Ctype.equal f.Ast.f_ret Ctype.Void && f.Ast.f_params = []
              then
                Some
                  {
                    Flash_api.h_name = f.Ast.f_name;
                    h_kind = Flash_api.Hw_handler;
                    h_lane_allowance = [| 1; 1; 1; 1 |];
                    h_no_stack = false;
                  }
              else None)
            (Ast.functions tu))
        tus;
    p_free_funcs = [];
    p_use_funcs = [];
    p_cond_free_funcs = [];
  }

let read_sources ~strict files =
  let skipped = ref 0 in
  let srcs =
    List.filter_map
      (fun path ->
        match
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with
        | src -> Some (path, Prelude.text ^ src)
        | exception Sys_error msg ->
          Printf.eprintf "%s: cannot read: %s\n%!" path msg;
          if strict then raise (Robust_exit Robust.Unusable);
          incr skipped;
          None)
      files
  in
  (srcs, !skipped)

(* fail fast on any front-end diagnostic, naming the earliest in source
   order (each file's lex diagnostics precede its parse ones) *)
let fail_fast = function
  | tus, [] -> tus
  | _, d :: ds ->
    let d =
      List.fold_left (fun a b -> if Diag.compare b a < 0 then b else a) d ds
    in
    Printf.eprintf "%s: %s error: %s\n%!"
      (Loc.to_string d.Diag.loc)
      (if d.Diag.checker = "lex" then "lexical" else "parse")
      d.Diag.message;
    raise (Robust_exit Robust.Unusable)

let parse_strict srcs = fail_fast (Frontend.parse_strings srcs)

(* Each file's front-end diagnostics in source order, files in input
   order: the front end returns a file's lex diagnostics before its
   parse ones. *)
let in_source_order (diags : Diag.t list) =
  let rank = Hashtbl.create 8 in
  List.iter
    (fun (d : Diag.t) ->
      let file = d.Diag.loc.Loc.file in
      if not (Hashtbl.mem rank file) then
        Hashtbl.add rank file (Hashtbl.length rank))
    diags;
  let rank (d : Diag.t) = Hashtbl.find rank d.Diag.loc.Loc.file in
  List.stable_sort
    (fun a b ->
      let c = Int.compare (rank a) (rank b) in
      if c <> 0 then c else Diag.compare a b)
    diags

(* ------------------------------------------------------------------ *)
(* Front-end reuse across runs                                         *)
(* ------------------------------------------------------------------ *)

(* [f] on every item, on at most [jobs] domains *)
let pool_iter ~jobs f items =
  let tasks = Array.of_list (List.map (fun x _ -> f x) items) in
  ignore (Mcd_pool.run ~domains:(min jobs (Array.length tasks)) tasks)

(* [Frontend.parse_strings], reusing each file whose text and typedef
   scope match its entry in [cache] (the cache file [path]'s index):
   - in file order, compute each key and parse the misses in place;
   - decode every hit's blob on [jobs] domains; a missing or corrupt
     blob is parsed instead;
   - if every decoded unit was annotated under the new program's env
     digest, annotate only the parsed files, else annotate every unit;
   - store a blob for every unit annotated here.
   The result is a function of (source, typedef scope, env), as a cold
   parse's is.  Returns it with the [cfront.reuse] span's arguments. *)
let m_reuse_hit = Mcobs.counter "cfront.reuse.hit"
let m_reuse_miss = Mcobs.counter "cfront.reuse.miss"
let m_reuse_missing = Mcobs.counter "cfront.reuse.missing"
let m_reuse_corrupt = Mcobs.counter "cfront.reuse.corrupt"

let parse_reusing ~jobs ~path cache (srcs : (string * string) list) =
  let srcs = Array.of_list srcs in
  let n = Array.length srcs in
  let keys = Array.make n "" and scopes = Array.make n [] in
  let units = Array.make n None and entries = Array.make n None in
  let parse i =
    let file, src = srcs.(i) in
    let u = Parser.parse_string_recovering ~file ~typedefs:scopes.(i) src in
    units.(i) <- Some u;
    Frontend.typedef_names (fst u)
  in
  let scope = ref [] in
  Array.iteri
    (fun i (file, src) ->
      scopes.(i) <- !scope;
      keys.(i) <- Mcd_cache.unit_key ~file ~scope:!scope src;
      let own =
        match Mcd_cache.find_unit cache file with
        | Some e when String.equal e.Mcd_cache.u_key keys.(i) ->
          entries.(i) <- Some e;
          e.Mcd_cache.u_typedefs
        | _ ->
          Mcobs.inc m_reuse_miss;
          parse i
      in
      scope := List.rev_append own !scope)
    srcs;
  let all = List.init n Fun.id in
  let hits = List.filter (fun i -> entries.(i) <> None) all in
  let decoded = Array.make n (Error `Missing) in
  pool_iter ~jobs
    (fun i -> decoded.(i) <- Mcd_cache.read_unit ~path (Option.get entries.(i)))
    hits;
  let reused = Array.make n false and failed = ref 0 in
  List.iter
    (fun i ->
      match decoded.(i) with
      | Ok u ->
        Mcobs.inc m_reuse_hit;
        units.(i) <- Some u;
        reused.(i) <- true
      | Error e ->
        Mcobs.inc
          (match e with
          | `Missing -> m_reuse_missing
          | `Corrupt -> m_reuse_corrupt);
        incr failed;
        ignore (parse i))
    hits;
  let units = Array.map Option.get units in
  let tus = Array.to_list (Array.map fst units) in
  let env = Mcd.env_digest tus in
  let redo =
    List.exists
      (fun i -> reused.(i) && (Option.get entries.(i)).Mcd_cache.u_env <> env)
      all
  in
  let fresh = List.filter (fun i -> redo || not reused.(i)) all in
  if fresh <> [] then
    Typecheck.annotate_units ~program:tus
      (List.map (fun i -> fst units.(i)) fresh);
  pool_iter ~jobs
    (fun i ->
      Mcd_cache.store_unit cache ~file:(fst srcs.(i)) ~key:keys.(i)
        ~typedefs:(Frontend.typedef_names (fst units.(i))) ~env units.(i))
    fresh;
  let n_reused = List.length (List.filter (Array.get reused) all) in
  let annotations = if redo then "redone" else "reused" in
  Mcobs.logf Mcobs.Verbose
    "front end: %d file(s) reused, %d parsed (%d blob(s) failed), \
     annotations %s"
    n_reused (n - n_reused) !failed annotations;
  ( (tus, List.concat_map snd (Array.to_list units)),
    [
      ("reused", string_of_int n_reused);
      ("parsed", string_of_int (n - n_reused));
      ("failed", string_of_int !failed);
      ("annotations", annotations);
    ] )

let load_metal paths =
  (* errors without a position still name the offending spec file *)
  let render path (e : Mir.error) =
    if Loc.is_none e.Mir.e_loc then
      Printf.sprintf "%s: metal %s: %s" path e.Mir.e_class e.Mir.e_msg
    else Mir.render_error e
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | path :: rest -> (
      match Mrun.load_file path with
      | Ok m -> go ((path, m) :: acc) rest
      | Error errs ->
        Error (String.concat "\n" (List.map (render path) errs))
      | exception Sys_error msg ->
        Error (Printf.sprintf "%s: cannot read metal spec: %s" path msg))
  in
  go [] paths

let corpus_jobs (c : Corpus.t) =
  List.map
    (fun (p : Corpus.protocol) ->
      { Mcd.spec = p.Corpus.spec; tus = p.Corpus.tus })
    c.Corpus.protocols

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

module Session = struct
  type t = {
    cfg : config;
    cache : Mcd_cache.t option;
    (* the whole-request memo: an incremental session answers a content-
       identical re-check without re-parsing or re-scheduling at all —
       the unit-level Mcd cache below it handles partial edits.  Sound
       because the pipeline is deterministic in (sources, selection). *)
    memo : (string, report) Hashtbl.t option;
    mutable closed : bool;
  }

  let create ?(config = default_config) () =
    let cache =
      if config.incremental then begin
        let c =
          match config.cache_file with
          | Some f -> Mcd_cache.load f
          | None -> Mcd_cache.create ()
        in
        (* warm up from the shared multi-writer directory: segments
           other worker processes published merge in on top *)
        (match config.cache_dir with
        | Some dir -> Mcd_cache.merge ~into:c (Mcd_cache.load_dir dir)
        | None -> ());
        Some c
      end
      else None
    in
    {
      cfg = config;
      cache;
      memo = (if config.incremental then Some (Hashtbl.create 64) else None);
      closed = false;
    }

  (* per-call selection override (the daemon's per-request [-c] flags)
     falls back to the session config *)
  let effective_checkers t = function
    | Some (_ :: _ as names) -> names
    | Some [] | None -> t.cfg.checkers

  (* containment-layer entries ("internal") always pass the selection:
     they say where coverage was lost *)
  let selected names name =
    names = [] || List.mem name names || String.equal name "internal"

  let count_findings results =
    List.fold_left
      (fun acc (_, ds) ->
        acc
        + List.length (List.filter (fun d -> not (Robust.is_internal d)) ds))
      0 results

  (* the scheduler summary the CLI prints after --jobs/--incremental
     runs; lives here so local and daemon runs log identically *)
  let report_sched_stats stats =
    Mcobs.logf Mcobs.Normal "%a" Mcd.pp_stats_line stats;
    Mcobs.logf Mcobs.Verbose "scheduler: %a" Mcd.pp_stats stats

  (* the session's counters, cumulative across every session in the
     process; the scheduler's own (units run, hit, faulted) are Mcd's *)
  let m_requests =
    Mcobs.counter ~help:"session check_* calls"
      "mcheck_session_requests_total"

  let m_findings =
    Mcobs.counter ~help:"non-internal findings reported"
      "mcheck_findings_total"

  let m_check_ms =
    Mcobs.hist ~help:"wall time inside check_* calls, ms" "mcheck_check_ms"

  let m_memo_probes =
    Mcobs.counter ~help:"whole-request memo probes" "mcheck_memo_probes_total"

  let m_memo_hits =
    Mcobs.counter ~help:"whole-request memo hits" "mcheck_memo_hits_total"

  let m_files = Mcobs.counter "api.files_checked"
  let m_diags = Mcobs.counter "api.diags_emitted"

  (* the loaded specs' entries, the first [n] of a job's results,
     folded spec by spec into one ["metal"] entry (none when empty);
     an ["internal"] entry after them stays *)
  let fold_metal n results =
    let specs = List.filteri (fun i _ -> i < n) results
    and rest = List.filteri (fun i _ -> i >= n) results in
    match List.concat_map snd specs with
    | [] -> rest
    | diags -> ("metal", diags) :: rest

  (* the one checking pass over parsed programs, one result list per
     job: the Mcd scheduler at any [jobs], over the loaded metal specs
     when configured, else the built-in checkers *)
  let run_pipeline t ~names (jobs : Mcd.job list) =
    let checkers, shape =
      match List.map snd t.cfg.metal with
      | [] -> (None, List.filter (fun (name, _) -> selected names name))
      | metal -> (Some metal, fold_metal (List.length metal))
    in
    let results, stats =
      Mcd.check_jobs ?cache:t.cache ~budget:t.cfg.budget ?checkers
        ~jobs:t.cfg.jobs jobs
    in
    if t.cfg.jobs > 1 || t.cfg.incremental then report_sched_stats stats;
    ( List.map shape results,
      stats,
      stats.Mcd.units_faulted > 0 || stats.Mcd.workers_crashed > 0 )

  (* the pipeline plus outcome classification over parsed programs;
     [parse_diags], [skipped] and [had_input] describe the read and
     parse step before it, when there was one *)
  let check_programs t ~names ?(parse_diags = []) ?(skipped = 0)
      ?(had_input = false) (jobs : Mcd.job list) =
    let results, sched, units_degraded = run_pipeline t ~names jobs in
    let flat = List.concat results in
    let findings = count_findings flat in
    (* a run where no function survived parsing checked nothing *)
    let survived =
      List.exists
        (fun (j : Mcd.job) ->
          List.exists (fun tu -> Ast.functions tu <> []) j.Mcd.tus)
        jobs
    in
    let outcome =
      Robust.classify
        ~usable:(survived || (parse_diags = [] && skipped = 0 && had_input))
        ~degraded:(parse_diags <> [] || skipped > 0 || units_degraded)
        ~has_findings:(findings > 0)
    in
    ( results,
      {
        r_parse = in_source_order parse_diags;
        r_results = flat;
        r_findings = findings;
        r_outcome = outcome;
        r_sched = sched;
      } )

  let record report ~files ~wall_ms =
    Mcobs.inc m_requests;
    Mcobs.inc ~by:files m_files;
    Mcobs.inc ~by:(List.length (report_diags report)) m_diags;
    Mcobs.inc ~by:report.r_findings m_findings;
    Mcobs.observe m_check_ms wall_ms

  (* everything the report depends on, digested *)
  let memo_key ~names srcs ~skipped ~had_input =
    let b = Buffer.create 256 in
    List.iter
      (fun (name, src) ->
        Buffer.add_string b name;
        Buffer.add_char b '\000';
        Buffer.add_string b (Digest.string src))
      srcs;
    Buffer.add_string b (String.concat "," names);
    Buffer.add_string b (Printf.sprintf "|%d|%b" skipped had_input);
    Digest.string (Buffer.contents b)

  let memo_find t key =
    match (t.memo, key) with
    | Some memo, Some key -> Hashtbl.find_opt memo key
    | _ -> None

  let memo_store t key report =
    match (t.memo, key) with
    | Some memo, Some key ->
      (* crude bound: a reset beats an eviction policy at this size *)
      if Hashtbl.length memo >= 512 then Hashtbl.reset memo;
      Hashtbl.replace memo key report
    | _ -> ()

  (* a session persisting its cache to a file keeps each file's parsed
     unit there too, so a warm re-check parses only what changed *)
  let parse t srcs =
    match (t.cache, t.cfg.cache_file) with
    | Some cache, Some path ->
      let jobs = max 1 (min t.cfg.jobs (Domain.recommended_domain_count ())) in
      fst
        (Mcobs.with_span "cfront.reuse" ~result_args:snd (fun () ->
             parse_reusing ~jobs ~path cache srcs))
    | _ -> Frontend.parse_strings srcs

  (* the shared back half: parse the (path, source) pairs, run, classify *)
  let check_sources_uncached t ~names srcs ~skipped ~had_input =
    let (_, report), wall_ms =
      time_ms (fun () ->
          let tus, parse_diags =
            let parsed = parse t srcs in
            if t.cfg.strict then (fail_fast parsed, []) else parsed
          in
          check_programs t ~names ~parse_diags ~skipped ~had_input
            [ { Mcd.spec = default_spec tus; tus } ])
    in
    record report ~files:(List.length srcs) ~wall_ms;
    report

  let check_sources t ~names srcs ~skipped ~had_input =
    let key =
      match t.memo with
      | Some _ -> Some (memo_key ~names srcs ~skipped ~had_input)
      | None -> None
    in
    if key <> None then Mcobs.inc m_memo_probes;
    match memo_find t key with
    | Some report ->
      Mcobs.inc m_memo_hits;
      record report ~files:(List.length srcs) ~wall_ms:0.;
      report
    | None ->
      let report = check_sources_uncached t ~names srcs ~skipped ~had_input in
      memo_store t key report;
      report

  let check_files ?checkers t files =
    Mcobs.with_span "api.check_files" (fun () ->
        let names = effective_checkers t checkers in
        let srcs, skipped = read_sources ~strict:t.cfg.strict files in
        check_sources t ~names srcs ~skipped ~had_input:(files <> []))

  let check_buffer ?checkers t ~name ~contents =
    Mcobs.with_span "api.check_buffer" (fun () ->
        check_sources t
          ~names:(effective_checkers t checkers)
          [ (name, Prelude.text ^ contents) ]
          ~skipped:0 ~had_input:true)

  let check_parsed t ~names jobs =
    let (results, report), wall_ms =
      time_ms (fun () -> check_programs t ~names jobs)
    in
    record report ~files:0 ~wall_ms;
    (results, report)

  (* the corpus path: every protocol through one scheduling pass (one
     Mcd pool over the whole job list), per-job result lists preserved
     for per-protocol printing *)
  let check_jobs t (jobs : Mcd.job list) =
    Mcobs.with_span "api.check_jobs" (fun () ->
        check_parsed t ~names:t.cfg.checkers jobs)

  (* share this session's warm results with concurrent writers; safe
     to call any time — failures are counted, never raised (a worker
     must not die because the cache directory got hostile) *)
  let m_publish_failed = Mcobs.counter "mcd.cache.publish.failed"

  let publish_cache t =
    match (t.cache, t.cfg.cache_dir) with
    | Some cache, Some dir -> (
      match Mcd_cache.publish_dir cache dir with
      | Ok _ -> ()
      | Error msg ->
        Mcobs.inc m_publish_failed;
        Mcobs.logf Mcobs.Verbose "cache publish: %s\n" msg)
    | _ -> ()

  let close t =
    if not t.closed then begin
      t.closed <- true;
      publish_cache t;
      match (t.cache, t.cfg.cache_file) with
      | Some cache, Some path -> Mcd_cache.save cache path
      | _ -> ()
    end
end
