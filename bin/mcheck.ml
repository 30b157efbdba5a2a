(** mcheck — run the metal checkers over FLASH-style protocol code.

    Usage:
    - [mcheck] — run every checker on the builtin synthetic corpus and
      print per-protocol results;
    - [mcheck --table N] — regenerate a table from the paper (1–7);
    - [mcheck --checker NAME FILE.c ...] — run one checker on source
      files;
    - [mcheck --metal FILE.metal FILE.c ...] — compile a checker written
      in the paper's metal syntax and run it (metal/ has Figures 2 and 3
      verbatim);
    - [mcheck --fix -o DIR FILE.c ...] — apply the automatic repairs
      (hooks, races, leaks) and write the patched sources;
    - [mcheck --server ADDR FILE.c ...] — send the check to a running
      [mcheckd] daemon instead of running the pipeline in-process; the
      printed diagnostics and the exit code are byte-identical to the
      local run, but a warm daemon answers without cold-start cost;
    - [mcheck --list] — list the available checkers.

    All local modes run on one {!Mcheck_api.Session} — the same facade
    the daemon serves — so CLI and service behaviour cannot drift.

    Scheduling: [--jobs N] runs the checkers on the [Mcd] work pool
    across N domains, and [--incremental] keeps the content-hash result
    cache warm across invocations (persisted to [--cache FILE]), so
    re-checking after editing one handler only re-runs the affected
    function-batched units.  Output is byte-identical to the sequential
    run in every configuration.

    Observability: [--explain] prints each diagnostic's witness path —
    the (location, event, state transition) steps that drove the checker
    to the report; [--trace FILE.json] records the whole pipeline
    (cfront, engine, mcd, cache, sim) as a Chrome trace; [--metrics]
    dumps the [Mcobs] metrics registry and the spans by name;
    [--quiet]/[-v] set the verbosity of the [Mcobs] log that all status
    lines route through. *)

open Cmdliner
module Session = Mcheck_api.Session

(* Status lines that belong on stdout (headers, summaries) are silenced
   by --quiet; log lines go through the Mcobs sink (stderr). *)
let say fmt =
  if Mcobs.get_verbosity () = Mcobs.Quiet then Printf.ifprintf stdout fmt
  else Printf.printf fmt

let list_checkers () =
  List.iter
    (fun (c : Registry.checker) ->
      Printf.printf "%-14s %s\n" c.Registry.name c.Registry.description)
    Registry.all

let with_session config f =
  let session = Session.create ~config () in
  Fun.protect ~finally:(fun () -> Session.close session) (fun () -> f session)

(* -------------------------------------------------------------- *)
(* Local modes: one Session, Mcheck_api does the wiring            *)
(* -------------------------------------------------------------- *)

let run_on_files files ropts config =
  with_session config (fun session ->
      let report = Session.check_files session files in
      Mcheck_api.print_report ropts report;
      Robust.exit_code report.Mcheck_api.r_outcome)

let run_corpus checker_names seed ropts config =
  let corpus = Corpus.generate ~seed () in
  (* corpus mode never force-includes "internal": its per-checker count
     lines list exactly what was asked for *)
  let selected name = checker_names = [] || List.mem name checker_names in
  let print_protocol_results result =
    List.iter
      (fun (name, diags) ->
        if selected name then begin
          say "-- %s: %d report(s)\n" name (List.length diags);
          if ropts.Mcheck_api.ro_verbose || ropts.Mcheck_api.ro_explain then
            List.iter
              (fun d ->
                Format.printf "   %a@."
                  (if ropts.Mcheck_api.ro_explain then Diag.pp_explain
                   else Diag.pp)
                  d)
              diags
        end)
      result
  in
  with_session config (fun session ->
      let results, _report =
        Session.check_jobs session (Mcheck_api.corpus_jobs corpus)
      in
      List.iter2
        (fun (p : Corpus.protocol) result ->
          say "=== %s (%d LOC) ===\n" p.Corpus.name p.Corpus.loc;
          print_protocol_results result)
        corpus.Corpus.protocols results)

let run_table n seed =
  let corpus = Corpus.generate ~seed () in
  let table =
    match n with
    | 1 -> Some (Experiments.table1 corpus)
    | 2 -> Some (Experiments.table2 corpus)
    | 3 -> Some (Experiments.table3 corpus)
    | 4 -> Some (Experiments.table4 corpus)
    | 5 -> Some (Experiments.table5 corpus)
    | 6 -> Some (Experiments.table6 corpus)
    | 7 -> Some (Experiments.table7 corpus)
    | _ -> None
  in
  match table with
  | Some t -> Table.print t
  | None ->
    if n = 0 then
      List.iter
        (fun t ->
          Table.print t;
          print_newline ())
        (Experiments.all corpus)
    else prerr_endline "tables are numbered 1-7 (0 = all)"

(* findings leave a --metal run at exit 0; a degraded or unusable run
   exits with its outcome's code, as the built-ins do *)
let metal_exit (r : Mcheck_api.report) =
  match r.Mcheck_api.r_outcome with
  | Robust.Clean | Robust.Findings -> 0
  | outcome -> Robust.exit_code outcome

let run_metal files ropts seed config =
  with_session config (fun session ->
      match files with
      | [] ->
        (* no files: the builtin corpus, every protocol in one
           scheduling pass as in [run_corpus] *)
        let corpus = Corpus.generate ~seed () in
        let results, report =
          Session.check_jobs session (Mcheck_api.corpus_jobs corpus)
        in
        List.iter2
          (fun (p : Corpus.protocol) result ->
            say "=== %s ===\n" p.Corpus.name;
            List.iter
              (fun (_, diags) ->
                List.iter
                  (fun d -> print_string (Mcheck_api.render_diag ropts d))
                  diags)
              result)
          corpus.Corpus.protocols results;
        if report.Mcheck_api.r_findings = 0 then say "no violations found\n";
        if metal_exit report <> 0 then
          Mcobs.logf Mcobs.Normal "mcheck: run was %s (exit %d)"
            (Robust.to_string report.Mcheck_api.r_outcome)
            (metal_exit report);
        metal_exit report
      | files ->
        let report = Session.check_files session files in
        Mcheck_api.print_report ropts report;
        metal_exit report)

let run_fix files out_dir =
  if files = [] then begin
    prerr_endline "--fix needs source files";
    exit (Robust.exit_code Robust.Unusable)
  end;
  (* patching a partially-parsed source would drop the unparsed regions
     from the output, so --fix always parses strictly *)
  let srcs, _ = Mcheck_api.read_sources ~strict:true files in
  let tus = Mcheck_api.parse_strict srcs in
  let spec = Mcheck_api.default_spec tus in
  let fixed = Fixer.fix_all ~spec tus in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  List.iter
    (fun tu ->
      let path = Filename.concat out_dir (Filename.basename tu.Ast.tu_file) in
      Mcheck_api.write_file path (Pp.tunit_to_string tu);
      say "patched %s\n" path)
    fixed

(* -------------------------------------------------------------- *)
(* --server: same check, but against a running mcheckd             *)
(* -------------------------------------------------------------- *)

(* The daemon renders with the same [Mcheck_api.render_diag] this
   binary uses locally; printing the streamed frames verbatim plus the
   same trailer rule makes local and remote stdout byte-identical. *)
let run_server addr_spec checker_names files ropts ~want_metrics =
  let fail_unusable msg =
    Printf.eprintf "mcheck: %s\n" msg;
    Robust.exit_code Robust.Unusable
  in
  if files = [] then fail_unusable "--server needs FILE arguments"
  else
    match Serve.Proto.parse_addr addr_spec with
    | Error msg -> fail_unusable msg
    | Ok addr -> (
      match Serve.Client.connect addr with
      | Error e -> fail_unusable (Serve.Client.err_to_string e)
      | Ok c ->
        (* the client mints the trace id, so one request is
           attributable end-to-end: grep this id in the daemon's
           access log and flight dump *)
        let trace = Mctel.Trace.mint () in
        let opts =
          {
            Serve.Proto.co_checkers = checker_names;
            co_explain = ropts.Mcheck_api.ro_explain;
            co_verbose = ropts.Mcheck_api.ro_verbose;
            co_quiet = ropts.Mcheck_api.ro_quiet;
            co_strict = false;
            co_trace = trace;
          }
        in
        let r =
          Serve.Client.check_files
            ~on_diag:(fun d -> print_string d.Serve.Proto.d_text)
            c opts files
        in
        if want_metrics then begin
          Printf.eprintf "trace: %s\n" trace;
          match Serve.Client.metrics c Serve.Proto.M_prom with
          | Ok text -> prerr_string text
          | Error e ->
            Printf.eprintf "mcheck: metrics: %s\n"
              (Serve.Client.err_to_string e)
        end;
        Serve.Client.close c;
        (match r with
        | Error e -> fail_unusable (Serve.Client.err_to_string e)
        | Ok (Serve.Client.Refused msg) ->
          Printf.eprintf "mcheck: server refused: %s\n" msg;
          Robust.exit_code Robust.Partial
        | Ok (Serve.Client.Overloaded ms) ->
          Printf.eprintf "mcheck: server overloaded; retry in %dms\n" ms;
          Robust.exit_code Robust.Partial
        | Ok (Serve.Client.Checked res) ->
          if
            res.Serve.Client.cr_findings = 0
            && not ropts.Mcheck_api.ro_quiet
          then print_string "no violations found\n";
          res.Serve.Client.cr_exit))

let main checker_names files table list_flag seed verbose metal_paths
    fix out_dir jobs incremental cache_file quiet explain
    trace_file metrics strict unit_fuel unit_deadline server =
  let budget = { Engine.fuel = unit_fuel; deadline_ms = unit_deadline } in
  Mcobs.set_verbosity
    (if quiet then Mcobs.Quiet
     else if verbose then Mcobs.Verbose
     else Mcobs.Normal);
  (* recording a trace or dumping metrics implies tracing on *)
  if trace_file <> None || metrics then Mcobs.set_enabled true;
  let ropts =
    { Mcheck_api.ro_explain = explain; ro_verbose = verbose; ro_quiet = quiet }
  in
  let config checkers metal =
    {
      Mcheck_api.jobs;
      incremental;
      cache_file = (if incremental then Some cache_file else None);
      cache_dir = None;
      budget;
      strict;
      checkers;
      metal;
    }
  in
  let code =
    match
      if list_flag then begin
        list_checkers ();
        0
      end
      else if fix then begin
        run_fix files out_dir;
        0
      end
      else begin
        match (server, table, metal_paths, files) with
        | Some addr, None, [], files ->
          (* the daemon owns scheduling and parse-mode policy; flags
             that would silently not apply are rejected loudly *)
          if strict then begin
            Printf.eprintf
              "mcheck: --strict is a daemon-side setting (start mcheckd \
               --strict)\n";
            Robust.exit_code Robust.Unusable
          end
          else run_server addr checker_names files ropts ~want_metrics:metrics
        | Some _, _, _, _ ->
          Printf.eprintf
            "mcheck: --server runs file checks only (no --table/--metal)\n";
          Robust.exit_code Robust.Unusable
        | None, Some n, _, _ ->
          run_table n seed;
          0
        | None, None, (_ :: _ as metal_paths), files -> (
          match Mcheck_api.load_metal metal_paths with
          | Error msg ->
            (* a rejected spec makes the whole run meaningless: exit 3,
               with the compiler's located, classified diagnostics *)
            Printf.eprintf "%s\n" msg;
            Robust.exit_code Robust.Unusable
          | Ok metal -> run_metal files ropts seed (config checker_names metal))
        | None, None, [], [] ->
          run_corpus checker_names seed ropts (config checker_names []);
          0
        | None, None, [], files ->
          run_on_files files ropts (config checker_names [])
      end
    with
    | code -> code
    | exception Mcheck_api.Robust_exit outcome -> Robust.exit_code outcome
  in
  (* exporters run after the work so the snapshot covers everything,
     and before the exit so a violation run still writes the trace *)
  (match trace_file with
  | Some path ->
    Mcobs.export_chrome_file path (Mcobs.snapshot ());
    Mcobs.logf Mcobs.Normal "wrote Chrome trace to %s" path
  | None -> ());
  if metrics then
    Format.eprintf "%a@." Mcobs.pp_summary (Mcobs.snapshot ());
  code

let checker_arg =
  Arg.(
    value & opt_all string []
    & info [ "c"; "checker" ] ~docv:"NAME"
        ~doc:"Run only the named checker (repeatable). See --list.")

(* [string], not [file]: missing inputs are our recovery path's job
   (reported and skipped, or fail-fast under --strict), not cmdliner's *)
let files_arg =
  Arg.(
    value & pos_all string [] & info [] ~docv:"FILE" ~doc:"C source files.")

let table_arg =
  Arg.(
    value & opt (some int) None
    & info [ "t"; "table" ] ~docv:"N"
        ~doc:"Regenerate paper table $(docv) (1-7; 0 for all).")

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List available checkers.")

let seed_arg =
  Arg.(
    value & opt int 0xF1A54
    & info [ "seed" ] ~docv:"SEED" ~doc:"Corpus generation seed.")

let metal_arg =
  Arg.(
    value & opt_all file []
    & info [ "m"; "metal" ] ~docv:"FILE"
        ~doc:"Compile and run a checker written in metal syntax \
              (repeatable).")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Print every diagnostic (with paths).")

let fix_arg =
  Arg.(
    value & flag
    & info [ "fix" ]
        ~doc:"Apply the automatic repairs (hooks, races, leaks) and write \
              the patched sources to the output directory.")

let out_arg =
  Arg.(
    value & opt string "fixed"
    & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory for --fix.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Schedule function-batched work units across $(docv) \
              domains.  Output is identical to the sequential run.")

let incremental_arg =
  Arg.(
    value & flag
    & info [ "incremental" ]
        ~doc:"Cache per-unit results by content hash and persist them \
              (see --cache), so re-checks after small edits only re-run \
              the affected units.")

let cache_arg =
  Arg.(
    value & opt string ".mcheck.cache"
    & info [ "cache" ] ~docv:"FILE"
        ~doc:"Cache file used by --incremental.")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "q"; "quiet" ]
        ~doc:"Print diagnostics only: suppress headers, summaries, and \
              status lines.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:"Print each diagnostic's witness path: the (location, \
              event, state transition) steps that drove the checker's \
              state machine to the report.")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record the run as a Chrome trace-event file (open in \
              chrome://tracing or Perfetto).  Covers cfront, engine, \
              mcd scheduler/pool/cache, and the simulator.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Dump the Mcobs metrics registry (non-zero counters and \
              histograms) and the spans by name after the run.")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:"Fail fast on the first unreadable or unparseable input \
              file (exit 3) instead of recovering, reporting, and \
              checking the surviving functions.")

let unit_fuel_arg =
  Arg.(
    value & opt (some int) None
    & info [ "unit-fuel" ] ~docv:"N"
        ~doc:"Per-unit step budget: a checker that visits more than \
              $(docv) (node, state) pairs on one work unit is cut off, \
              reported, and replaced by a degraded flow-insensitive \
              pass.")

let unit_deadline_arg =
  Arg.(
    value & opt (some float) None
    & info [ "unit-deadline" ] ~docv:"MS"
        ~doc:"Per-unit wall-clock budget in milliseconds; exceeded \
              units are cut off, reported, and degraded like \
              --unit-fuel.")

let server_arg =
  Arg.(
    value & opt (some string) None
    & info [ "server" ] ~docv:"ADDR"
        ~doc:"Check the files against a running mcheckd daemon at \
              $(docv) (a unix socket path, unix:PATH, or HOST:PORT) \
              instead of in-process.  Diagnostics and exit code are \
              identical to the local run.")

let cmd =
  let doc =
    "metal checkers for FLASH protocol code (ASPLOS 2000 reproduction)"
  in
  Cmd.v
    (Cmd.info "mcheck" ~doc)
    Term.(
      const main $ checker_arg $ files_arg $ table_arg $ list_arg $ seed_arg
      $ verbose_arg $ metal_arg $ fix_arg $ out_arg
      $ jobs_arg $ incremental_arg $ cache_arg $ quiet_arg $ explain_arg
      $ trace_arg $ metrics_arg $ strict_arg $ unit_fuel_arg
      $ unit_deadline_arg $ server_arg)

let () =
  Serve.Worker.exit_if_worker ();
  exit (Cmd.eval' cmd)
