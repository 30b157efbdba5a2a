(** mcheckd — the checking-as-a-service daemon.

    Serve mode (the default): bind a Unix or TCP socket and answer
    [Serve.Proto] check requests until drained.  Every check runs in a
    pool of supervised worker processes, each holding one warm
    {!Mcheck_api.Session} (the Mcd scheduler over the [Registry]
    checking kernel, the content-hash Mcd cache in memory): a poisoned
    unit can kill a worker but never the daemon.

    - [mcheckd --socket PATH] / [mcheckd --tcp HOST:PORT] — listen;
    - [--workers N] — pool size (default 2, plus one hot spare; at
      least 1); [--worker-mem MB] / [--worker-cpu S] set per-worker
      RLIMIT_AS / RLIMIT_CPU, [--request-timeout MS] the per-request
      wall deadline, [--cache-dir DIR] a shared multi-writer cache
      directory that outlives the daemon;
    - [--jobs N] — Mcd domain count for each check in a worker;
    - [--metal FILE] — serve a metal-spec checker instead of the nine
      builtins (re-read on reload);
    - [--max-inflight N] — admission bound: past N in-flight checks,
      new ones are shed with a fast R_overloaded + Retry-After.

    Telemetry (serve mode): [--metrics-addr HOST:PORT] serves the live
    metrics registry over HTTP ([/metrics] Prometheus text,
    [/metrics.json]); [--access-log FILE] writes one JSONL line per
    request ([--log-sample N] keeps every N-th, SIGHUP reopens the file
    for rotation); the flight recorder keeps the span trees of recent
    requests, always retaining ones slower than [--flight-threshold]
    milliseconds or ending in an error ([--flight-capacity] per ring);
    [--no-tracing] leaves span recording off in the workers (metrics
    and the access log stay live).

    Control mode (acts as a client against the same address, then
    exits): [--drain] finishes in-flight requests and shuts the daemon
    down, [--reload] swaps specs without dropping connections,
    [--stats] prints daemon/session statistics as JSON ([--human] for
    text), [--metrics] prints the live registry (Prometheus text, or
    JSON with [--json]), [--dump-flight] prints the flight recorder's
    JSON dump, [--ping] checks liveness.  SIGINT/SIGTERM initiate the
    same graceful drain. *)

open Cmdliner

type control =
  | Serve
  | Ctl_drain
  | Ctl_reload
  | Ctl_stats
  | Ctl_ping
  | Ctl_metrics
  | Ctl_flight

let fail_usable msg =
  Printf.eprintf "mcheckd: %s\n" msg;
  exit (Robust.exit_code Robust.Unusable)

let run_control addr ctl ~human ~json =
  match Serve.Client.connect addr with
  | Error e -> fail_usable (Serve.Client.err_to_string e)
  | Ok c ->
    let r =
      match ctl with
      | Ctl_drain -> Result.map (fun () -> "draining") (Serve.Client.drain c)
      | Ctl_reload ->
        Result.map (fun () -> "reloaded") (Serve.Client.reload c)
      | Ctl_stats ->
        if human then Serve.Client.stats c else Serve.Client.stats_json c
      | Ctl_metrics ->
        Serve.Client.metrics c
          (if json then Serve.Proto.M_json else Serve.Proto.M_prom)
      | Ctl_flight -> Serve.Client.flight c
      | Ctl_ping -> Result.map (fun () -> "pong") (Serve.Client.ping c)
      | Serve -> assert false
    in
    Serve.Client.close c;
    (match r with
    | Ok text ->
      print_string text;
      if text = "" || text.[String.length text - 1] <> '\n' then
        print_newline ()
    | Error e -> fail_usable (Serve.Client.err_to_string e));
    0

let run_serve addr jobs metal strict unit_fuel unit_deadline idle_timeout
    telemetry supervise max_inflight =
  (* a client that vanishes mid-reply must not kill the daemon: EPIPE
     becomes a counted metric, not a signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let api =
    {
      Mcheck_api.default_config with
      jobs;
      incremental = true;
      strict;
      budget = { Engine.fuel = unit_fuel; deadline_ms = unit_deadline };
    }
  in
  let cfg =
    {
      Serve.Server.addr;
      api;
      metal_paths = metal;
      idle_timeout;
      telemetry;
      supervise;
      max_inflight;
    }
  in
  match Serve.Server.create cfg with
  | Error msg -> fail_usable msg
  | Ok t ->
    (* signal handlers only flip atomics: taking the server mutex at a
       signal point could deadlock against our own thread *)
    let want_drain = Atomic.make false in
    let on_signal _ = Atomic.set want_drain true in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
     with _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
     with _ -> ());
    (try
       Sys.set_signal Sys.sighup
         (Sys.Signal_handle (fun _ -> Serve.Server.reopen_access_log t))
     with _ -> ());
    let _watcher =
      Thread.create
        (fun () ->
          while not (Serve.Server.draining t) do
            Thread.delay 0.1;
            if Atomic.get want_drain then Serve.Server.initiate_drain t
          done)
        ()
    in
    Serve.Server.run t;
    0

let main socket tcp ctl_drain ctl_reload ctl_stats ctl_ping ctl_metrics
    ctl_flight human json jobs metal strict unit_fuel
    unit_deadline idle_timeout metrics_addr access_log log_sample
    flight_capacity flight_threshold no_tracing workers worker_mem
    worker_cpu request_timeout max_inflight cache_dir quiet verbose =
  Mcobs.set_verbosity
    (if quiet then Mcobs.Quiet
     else if verbose then Mcobs.Verbose
     else Mcobs.Normal);
  let addr =
    match tcp with
    | Some spec -> (
      match Serve.Proto.parse_addr spec with
      | Ok (Serve.Proto.Tcp _ as a) -> a
      | Ok (Serve.Proto.Unix_sock _) -> fail_usable "--tcp wants HOST:PORT"
      | Error msg -> fail_usable msg)
    | None -> Serve.Proto.Unix_sock socket
  in
  let ctl =
    match
      List.filter_map Fun.id
        [
          (if ctl_drain then Some Ctl_drain else None);
          (if ctl_reload then Some Ctl_reload else None);
          (if ctl_stats then Some Ctl_stats else None);
          (if ctl_ping then Some Ctl_ping else None);
          (if ctl_metrics then Some Ctl_metrics else None);
          (if ctl_flight then Some Ctl_flight else None);
        ]
    with
    | [] -> Serve
    | [ c ] -> c
    | _ ->
      fail_usable
        "pick one of --drain / --reload / --stats / --metrics / \
         --dump-flight / --ping"
  in
  match ctl with
  | Serve ->
    let telemetry =
      {
        Serve.Server.tel_tracing = not no_tracing;
        tel_access_log = access_log;
        tel_sample = log_sample;
        tel_flight_capacity = flight_capacity;
        tel_flight_threshold_ms = flight_threshold;
        tel_metrics_addr =
          (match metrics_addr with
          | None -> None
          | Some spec -> (
            match Serve.Proto.parse_addr spec with
            | Ok a -> Some a
            | Error msg -> fail_usable ("--metrics-addr: " ^ msg)));
      }
    in
    let supervise =
      {
        Serve.Server.sv_workers = workers;
        sv_mem_mb = worker_mem;
        sv_cpu_s = worker_cpu;
        sv_wall_ms = request_timeout;
        sv_cache_dir = cache_dir;
        sv_allow_chaos = false;
      }
    in
    run_serve addr jobs metal strict unit_fuel unit_deadline idle_timeout
      telemetry supervise max_inflight
  | ctl -> run_control addr ctl ~human ~json

let socket_arg =
  Arg.(
    value & opt string "mcheckd.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to listen on (or to control).")

let tcp_arg =
  Arg.(
    value & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Listen on TCP instead of a Unix socket.")

let drain_arg =
  Arg.(
    value & flag
    & info [ "drain" ]
        ~doc:
          "Control mode: ask the daemon to finish in-flight requests and \
           shut down, then exit.")

let reload_arg =
  Arg.(
    value & flag
    & info [ "reload" ]
        ~doc:
          "Control mode: ask the daemon to finish in-flight requests and \
           restart its workers (metal specs re-read).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Control mode: print daemon statistics as JSON ($(b,--human) \
           for the text form).")

let ping_arg =
  Arg.(value & flag & info [ "ping" ] ~doc:"Control mode: liveness check.")

let metrics_ctl_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Control mode: print the daemon's live metrics registry in \
           Prometheus text exposition format ($(b,--json) for JSON).")

let flight_ctl_arg =
  Arg.(
    value & flag
    & info [ "dump-flight" ]
        ~doc:
          "Control mode: print the daemon's flight recorder — the span \
           trees of recent, slow, and failed requests — as JSON.")

let human_arg =
  Arg.(
    value & flag
    & info [ "human" ] ~doc:"With $(b,--stats): the human-readable text \
                             form instead of JSON.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"With $(b,--metrics): JSON instead of \
                            Prometheus text.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Mcd domain count used for each check request.")

let metal_arg =
  Arg.(
    value & opt_all file []
    & info [ "m"; "metal" ] ~docv:"FILE"
        ~doc:
          "Serve a checker written in metal syntax instead of the nine \
           builtins (repeatable; re-read on --reload).")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:"Fail each request fast on unparseable input (exit 3 on \
              the wire) instead of recovering.")

let unit_fuel_arg =
  Arg.(
    value & opt (some int) None
    & info [ "unit-fuel" ] ~docv:"N" ~doc:"Per-unit step budget.")

let unit_deadline_arg =
  Arg.(
    value & opt (some float) None
    & info [ "unit-deadline" ] ~docv:"MS"
        ~doc:"Per-unit wall-clock budget in milliseconds.")

let idle_arg =
  Arg.(
    value & opt float 10.0
    & info [ "idle-timeout" ] ~docv:"S"
        ~doc:"Reap client connections idle for more than $(docv) seconds.")

let metrics_addr_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics-addr" ] ~docv:"ADDR"
        ~doc:
          "Serve the live metrics over HTTP on $(docv) (HOST:PORT or a \
           unix socket path): GET /metrics is Prometheus text, \
           /metrics.json is JSON.")

let access_log_arg =
  Arg.(
    value & opt (some string) None
    & info [ "access-log" ] ~docv:"FILE"
        ~doc:
          "Append one JSON line per request to $(docv): trace id, peer, \
           kind, bytes, wall time, outcome, finding/diagnostic counts, \
           cache hits.  SIGHUP reopens the file (log rotation).")

let log_sample_arg =
  Arg.(
    value & opt int 1
    & info [ "log-sample" ] ~docv:"N"
        ~doc:"Write every $(docv)-th access-log line (1 = all).")

let flight_capacity_arg =
  Arg.(
    value & opt int 64
    & info [ "flight-capacity" ] ~docv:"N"
        ~doc:"Flight-recorder ring size (recent and notable rings each).")

let flight_threshold_arg =
  Arg.(
    value & opt float 250.
    & info [ "flight-threshold" ] ~docv:"MS"
        ~doc:
          "Requests slower than $(docv) milliseconds are always retained \
           by the flight recorder, as are requests ending in an error.")

let no_tracing_arg =
  Arg.(
    value & flag
    & info [ "no-tracing" ]
        ~doc:
          "Do not record request spans (disables the flight recorder's \
           span trees; metrics and the access log stay live).")

let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
      Error
        (`Msg (Printf.sprintf "expected a count of at least 1, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let workers_arg =
  Arg.(
    value & opt positive 2
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Dispatch each check into a pool of $(docv) supervised worker \
           processes (plus one hot spare); at least 1.  A worker that \
           dies, blows its memory/CPU limit, or misses the request \
           deadline is killed and respawned; the request is retried \
           once on a fresh worker before the client sees an error.")

let worker_mem_arg =
  Arg.(
    value & opt (some int) (Some 1024)
    & info [ "worker-mem" ] ~docv:"MB"
        ~doc:"Per-worker address-space limit (RLIMIT_AS), in MiB.")

let worker_cpu_arg =
  Arg.(
    value & opt (some int) (Some 30)
    & info [ "worker-cpu" ] ~docv:"S"
        ~doc:"Per-worker CPU-time limit (RLIMIT_CPU), in seconds.")

let request_timeout_arg =
  Arg.(
    value & opt (some float) (Some 30000.)
    & info [ "request-timeout" ] ~docv:"MS"
        ~doc:
          "Per-request wall deadline: a worker that \
           has not answered within $(docv) milliseconds is killed and \
           the request retried once.")

let max_inflight_arg =
  Arg.(
    value & opt int 64
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:
          "Admission bound: past $(docv) in-flight checks, new ones \
           are shed immediately with R_overloaded and a Retry-After \
           hint instead of queueing without bound.")

let cache_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Shared result-cache directory for the workers: each worker \
           publishes content-addressed segments atomically and loads \
           the others' at startup (safe under concurrent writers), so \
           warm results outlive a worker and the daemon.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No status output.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")

let cmd =
  let doc = "checking-as-a-service daemon for the metal FLASH checkers" in
  Cmd.v
    (Cmd.info "mcheckd" ~doc)
    Term.(
      const main $ socket_arg $ tcp_arg $ drain_arg $ reload_arg $ stats_arg
      $ ping_arg $ metrics_ctl_arg $ flight_ctl_arg $ human_arg $ json_arg
      $ jobs_arg $ metal_arg $ strict_arg
      $ unit_fuel_arg $ unit_deadline_arg $ idle_arg $ metrics_addr_arg
      $ access_log_arg $ log_sample_arg $ flight_capacity_arg
      $ flight_threshold_arg $ no_tracing_arg $ workers_arg $ worker_mem_arg
      $ worker_cpu_arg $ request_timeout_arg $ max_inflight_arg
      $ cache_dir_arg $ quiet_arg $ verbose_arg)

let () =
  (* re-exec'd as a supervised worker?  never parse argv — serve the
     socketpair on stdin and exit *)
  Serve.Worker.exit_if_worker ();
  exit (Cmd.eval' cmd)
