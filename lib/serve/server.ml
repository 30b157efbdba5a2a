(* The mcheckd daemon core.  One accept loop, one thread per
   connection; every check is dispatched into the Mcsup pool of worker
   processes, so this address space never touches request data.  All
   daemon state transitions (drain, counters) go through [t.mu].

   Telemetry rides every request: a trace id (client-minted or ours)
   travels to the worker in the request's options, the worker's
   trailer brings back its spans and registry delta, the flight
   recorder keeps the merged span tree, latency/byte/outcome metrics
   feed the Mcobs registry (which [--stats] and [/metrics] both read),
   and one JSONL access-log line is written per request. *)

type telemetry = {
  tel_tracing : bool;
  tel_access_log : string option;
  tel_sample : int;
  tel_flight_capacity : int;
  tel_flight_threshold_ms : float;
  tel_metrics_addr : Proto.addr option;
}

let default_telemetry =
  {
    tel_tracing = true;
    tel_access_log = None;
    tel_sample = 1;
    tel_flight_capacity = 64;
    tel_flight_threshold_ms = 250.;
    tel_metrics_addr = None;
  }

type supervise = {
  sv_workers : int;
  sv_mem_mb : int option;
  sv_cpu_s : int option;
  sv_wall_ms : float option;
  sv_cache_dir : string option;
  sv_allow_chaos : bool;
}

let default_supervise =
  {
    sv_workers = 2;
    sv_mem_mb = Some 1024;
    sv_cpu_s = Some 30;
    sv_wall_ms = Some 30_000.;
    sv_cache_dir = None;
    sv_allow_chaos = false;
  }

type config = {
  addr : Proto.addr;
  api : Mcheck_api.config;
  metal_paths : string list;
  idle_timeout : float;
  telemetry : telemetry;
  supervise : supervise;
  max_inflight : int;
}

let default_config =
  {
    addr = Proto.Unix_sock "mcheckd.sock";
    api = { Mcheck_api.default_config with incremental = true };
    metal_paths = [];
    idle_timeout = 10.0;
    telemetry = default_telemetry;
    supervise = default_supervise;
    max_inflight = 64;
  }

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  msock : Unix.file_descr option;  (* metrics exposition listener *)
  access : Mctel.Accesslog.t;
  flight : Mctel.Flight.t;
  mu : Mutex.t;  (* the drain flag, conns and inflight *)
  cond : Condition.t;  (* signalled when conns/inflight drop *)
  sup : Mcsup.t;  (* the worker pool every check runs in *)
  mutable is_draining : bool;
  mutable conns : int;
  mutable inflight_n : int;
  started : float;
}

(* ------------------------------------------------------------------ *)
(* Live metrics                                                        *)
(* ------------------------------------------------------------------ *)

(* module-level registration: the series exist (at zero) in any binary
   linking the server, so exposition-presence checks never race the
   first request *)
let m_requests =
  Mcobs.counter ~help:"requests admitted" "mcheckd_requests_total"

let m_refused =
  Mcobs.counter ~help:"requests refused while draining"
    "mcheckd_refused_total"

let m_faults =
  Mcobs.counter ~help:"requests ended by the fault barrier"
    "mcheckd_faults_total"

let m_proto_errors =
  Mcobs.counter ~help:"malformed frames and requests"
    "mcheckd_protocol_errors_total"

let m_bytes_in =
  Mcobs.counter ~help:"request bytes read (frames incl. headers)"
    "mcheckd_bytes_in_total"

let m_bytes_out =
  Mcobs.counter ~help:"response bytes written (frames incl. headers)"
    "mcheckd_bytes_out_total"

let m_inflight =
  Mcobs.gauge ~help:"admitted check requests not yet answered"
    "mcheckd_inflight"

let m_queue =
  Mcobs.gauge ~help:"admitted requests waiting for a free worker"
    "mcheckd_queue_depth"

let m_conns = Mcobs.gauge ~help:"open connections" "mcheckd_connections"
let m_draining = Mcobs.gauge ~help:"1 while draining" "mcheckd_draining"

let m_flight_notable =
  Mcobs.counter ~help:"flight-recorder entries retained as notable"
    "mcheckd_flight_notable_total"

let m_req_ms =
  Mcobs.hist ~help:"request wall time (all request kinds), ms"
    "mcheckd_request_ms"

let m_shed =
  Mcobs.counter ~help:"requests shed by admission control"
    "mcheckd_shed_total"

let m_client_aborts =
  Mcobs.counter
    ~help:"response writes that found the client gone (EPIPE/ECONNRESET)"
    "mcheckd_client_aborts_total"

(* ------------------------------------------------------------------ *)
(* Pool construction                                                   *)
(* ------------------------------------------------------------------ *)

(* listeners are close-on-exec: spawned workers must not inherit them
   (an inherited listener keeps the port bound past the daemon's own
   death) *)
let sock_of = function
  | Proto.Unix_sock path ->
    if Sys.file_exists path then (try Unix.unlink path with _ -> ());
    let s = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind s (Unix.ADDR_UNIX path);
    s
  | Proto.Tcp (host, port) ->
    let ip =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_of_string host
    in
    let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt s Unix.SO_REUSEADDR true;
    Unix.bind s (Unix.ADDR_INET (ip, port));
    s

(* what each fresh worker process needs to build its session on its
   side of the exec: paths and scalars only, no closures *)
let wconfig_of cfg =
  let sv = cfg.supervise in
  {
    Worker.wc_jobs = cfg.api.Mcheck_api.jobs;
    wc_incremental = cfg.api.Mcheck_api.incremental;
    wc_strict = cfg.api.Mcheck_api.strict;
    wc_fuel = cfg.api.Mcheck_api.budget.Engine.fuel;
    wc_deadline_ms = cfg.api.Mcheck_api.budget.Engine.deadline_ms;
    wc_checkers = cfg.api.Mcheck_api.checkers;
    wc_metal_paths = cfg.metal_paths;
    wc_cache_dir = sv.sv_cache_dir;
    wc_mem_mb = sv.sv_mem_mb;
    wc_cpu_s = sv.sv_cpu_s;
    wc_allow_chaos = sv.sv_allow_chaos;
    wc_tracing = cfg.telemetry.tel_tracing;
  }

let build_pool cfg =
  let sv = cfg.supervise in
  Mcsup.create
    (Worker.pool_config ~size:sv.sv_workers ~wall_ms:sv.sv_wall_ms
       (wconfig_of cfg))
  |> Result.map_error (fun msg -> "cannot start worker pool: " ^ msg)

(* the metal specs are validated here, not only in each worker: a spec
   that does not compile is a startup error, not a pool of workers that
   die at birth *)
let create cfg =
  match Mcheck_api.load_metal cfg.metal_paths with
  | Error _ as e -> e
  | Ok _ -> (
    match sock_of cfg.addr with
    | exception e ->
      Error
        (Printf.sprintf "cannot listen on %s: %s"
           (Proto.addr_to_string cfg.addr)
           (Printexc.to_string e))
    | lsock -> (
      Unix.listen lsock 64;
      let msock =
        match cfg.telemetry.tel_metrics_addr with
        | None -> Ok None
        | Some addr -> (
          match sock_of addr with
          | s ->
            Unix.listen s 16;
            Ok (Some s)
          | exception e ->
            Error
              (Printf.sprintf "cannot expose metrics on %s: %s"
                 (Proto.addr_to_string addr)
                 (Printexc.to_string e)))
      in
      match msock with
      | Error msg ->
        (try Unix.close lsock with _ -> ());
        Error msg
      | Ok msock ->
      match build_pool cfg with
      | Error msg ->
        (try Unix.close lsock with _ -> ());
        (match msock with
        | Some s -> ( try Unix.close s with _ -> ())
        | None -> ());
        Error msg
      | Ok sup ->
        Ok
          {
            cfg;
            lsock;
            msock;
            sup;
            access =
              Mctel.Accesslog.create ~sample:cfg.telemetry.tel_sample
                ~path:cfg.telemetry.tel_access_log ();
            flight =
              Mctel.Flight.create ~capacity:cfg.telemetry.tel_flight_capacity
                ~threshold_ms:cfg.telemetry.tel_flight_threshold_ms ();
            mu = Mutex.create ();
            cond = Condition.create ();
            is_draining = false;
            conns = 0;
            inflight_n = 0;
            started = Unix.gettimeofday ();
          }))

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let initiate_drain t =
  locked t.mu (fun () ->
      t.is_draining <- true;
      Mcobs.set m_draining 1;
      Condition.broadcast t.cond)

let draining t = locked t.mu (fun () -> t.is_draining)
let supervisor t = t.sup
let flight_recorder t = t.flight
let reopen_access_log t = Mctel.Accesslog.reopen t.access

(* [--stats] is a view of the registry.  The workers' sessions count
   in the workers, and their trailers merge those counts into this
   process's registry, so [--stats] and [/metrics] read the same
   counters.  Each session field is one series: (JSON key, text label,
   series name). *)
let session_series =
  [
    ("requests", "requests", "mcheck_session_requests_total");
    ("files_checked", "files", "api.files_checked");
    ("diags_emitted", "diags", "api.diags_emitted");
    ("findings", "findings", "mcheck_findings_total");
    ("units_run", "units run", "mcheck_units_run_total");
    ("cache_hits", "cache hits", "mcheck_unit_cache_hits_total");
    (* unit results stored into the workers' caches *)
    ("cache_entries", "cache entries", "mcd.cache.store");
  ]

type view = {
  v_conns : int;
  v_requests : int;
  v_refused : int;  (* refused while draining, plus shed *)
  v_errors : int;  (* fault-barrier trips, plus malformed frames *)
  v_inflight : int;
  v_draining : bool;
  v_session : (string * string * int) list;
  v_check_ms : float;  (* the [mcheck_check_ms] sum *)
  v_uptime_s : float;
}

let stats_view t =
  let m = Mcobs.metrics () in
  let series name =
    Option.value ~default:0 (List.assoc_opt name m.Mcobs.m_counters)
  in
  let v = Mcobs.counter_value in
  locked t.mu (fun () ->
      {
        v_conns = t.conns;
        v_requests = v m_requests;
        v_refused = v m_refused + v m_shed;
        v_errors = v m_faults + v m_proto_errors;
        v_inflight = t.inflight_n;
        v_draining = t.is_draining;
        v_session =
          List.map
            (fun (key, label, name) -> (key, label, series name))
            session_series;
        v_check_ms =
          (match List.assoc_opt "mcheck_check_ms" m.Mcobs.m_hists with
          | Some h -> h.Mcobs.sum_ms
          | None -> 0.);
        v_uptime_s = Unix.gettimeofday () -. t.started;
      })

let stats_text t =
  let v = stats_view t in
  Printf.sprintf
    "mcheckd %s: up %.1f s, %d conn(s), %d request(s) served, %d refused, \
     %d error(s), %d in flight%s\nsession: %s, check wall %.1f ms, uptime \
     %.1f s\n"
    (Proto.addr_to_string t.cfg.addr)
    v.v_uptime_s v.v_conns v.v_requests v.v_refused v.v_errors v.v_inflight
    (if v.v_draining then " (draining)" else "")
    (String.concat ", "
       (List.map (fun (_, label, n) -> Printf.sprintf "%s %d" label n)
          v.v_session))
    v.v_check_ms v.v_uptime_s

let stats_json t =
  let v = stats_view t in
  Printf.sprintf
    "{\"addr\":\"%s\",\"uptime_s\":%.1f,\"conns\":%d,\"requests\":%d,\"refused\":%d,\"errors\":%d,\"inflight\":%d,\"draining\":%b,\"access_log_lines\":%d,\"flight_notable\":%d,\"session\":{%s,\"check_wall_ms\":%.1f,\"uptime_s\":%.1f}}\n"
    (Mcobs.json_escape (Proto.addr_to_string t.cfg.addr))
    v.v_uptime_s v.v_conns v.v_requests v.v_refused v.v_errors v.v_inflight
    v.v_draining
    (Mctel.Accesslog.lines_written t.access)
    (Mctel.Flight.retained t.flight)
    (String.concat ","
       (List.map (fun (key, _, n) -> Printf.sprintf "\"%s\":%d" key n)
          v.v_session))
    v.v_check_ms v.v_uptime_s

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let send fd resp = Proto.write_frame fd (Proto.encode_response resp)

(* the Retry-After hint for shed requests: roughly how long the
   backlog ahead of the client will take, from the live p50 — clamped
   so a cold histogram still produces a sane hint *)
let retry_after_ms t inflight =
  let p50 =
    Option.value ~default:50.
      (Mcobs.quantile_hist (Mcobs.hist_snapshot m_req_ms) 0.5)
  in
  let lanes = max 1 (Mcsup.size t.sup) in
  let ms = p50 *. float_of_int inflight /. float_of_int lanes in
  max 25 (min 5000 (int_of_float ms))

(* admission: a check admitted before the drain flag flips always runs
   to completion — the drain-under-load zero-loss guarantee.  Beyond
   [max_inflight] the request is shed with a Retry-After hint instead
   of queueing without bound (fail fast beats slow-everything). *)
let admit t =
  locked t.mu (fun () ->
      if t.is_draining then `Draining
      else if t.inflight_n >= t.cfg.max_inflight then
        `Shed (retry_after_ms t t.inflight_n)
      else begin
        t.inflight_n <- t.inflight_n + 1;
        Mcobs.inc m_requests;
        Mcobs.set m_inflight t.inflight_n;
        `Admitted
      end)

let finish_inflight t =
  locked t.mu (fun () ->
      t.inflight_n <- t.inflight_n - 1;
      Mcobs.set m_inflight t.inflight_n;
      Condition.broadcast t.cond)

(* the request trace id: the client's, when well-formed; ours
   otherwise — every request is traceable either way *)
let request_trace (opts : Proto.check_opts) =
  match Mctel.Trace.sanitize opts.Proto.co_trace with
  | Some id -> id
  | None -> Mctel.Trace.mint ()

(* the request as the worker sees it: carrying the resolved trace id *)
let with_trace_id trace = function
  | Proto.Check_files (o, paths) ->
    Proto.Check_files ({ o with Proto.co_trace = trace }, paths)
  | Proto.Check_buffer (o, name, contents) ->
    Proto.Check_buffer ({ o with Proto.co_trace = trace }, name, contents)
  | req -> req

(* al_outcome, recovered from the worker's own R_done exit code (the
   report object never crosses the process line) *)
let outcome_of_exit = function
  | 0 -> "clean"
  | 1 -> "findings"
  | 2 -> "partial"
  | _ -> "unusable"

(* a span this thread measured itself; it goes straight into the
   request's flight entry, never through Mcobs's shared buffers *)
let span ~trace ?(args = []) ~depth name ~begin_us =
  {
    Mcobs.sp_name = name;
    sp_tid = (Domain.self () :> int);
    sp_trace = trace;
    sp_begin_us = begin_us;
    sp_dur_us = Mcobs.now_us () -. begin_us;
    sp_depth = depth;
    sp_args = args;
  }

(* fold a worker's trailer into the daemon's telemetry — its registry
   delta into this registry — and return its spans moved onto this
   process's clock, nested under serve.request and serve.dispatch *)
let absorb (tr : Worker.trailer) =
  Mcobs.merge tr.tr_metrics;
  let shift = (tr.tr_origin_s -. Mcobs.origin_s) *. 1e6 in
  List.map
    (fun (sp : Mcobs.span) ->
      {
        sp with
        sp_begin_us = sp.sp_begin_us +. shift;
        sp_depth = sp.sp_depth + 2;
      })
    tr.tr_spans

let run_check t fd ~peer ~kind ~bytes_in req (opts : Proto.check_opts) =
  let begin_us = Mcobs.now_us () in
  let t0 = Unix.gettimeofday () in
  let trace = request_trace opts in
  let tracing = t.cfg.telemetry.tel_tracing in
  let bytes_out = ref 0 in
  let send_counted resp =
    let payload = Proto.encode_response resp in
    bytes_out := !bytes_out + Proto.header_len + String.length payload;
    Proto.write_frame fd payload
  in
  let outcome = ref "fault" in
  let findings = ref 0 in
  let diags_n = ref 0 in
  let cache_hits = ref 0 in
  let spans = ref [] in
  let logged = ref false in
  (* one terminal accounting step per request, wherever the request
     exits: latency histogram, byte counters, access-log line, flight
     entry — committed after the reply frames, so a client that has
     seen R_done can fetch its own flight entry on the same
     connection *)
  let finish_log () =
    if not !logged then begin
      logged := true;
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      Mcobs.observe m_req_ms wall_ms;
      Mcobs.inc ~by:bytes_in m_bytes_in;
      Mcobs.inc ~by:!bytes_out m_bytes_out;
      ignore
        (Mctel.Accesslog.log t.access
           {
             Mctel.Accesslog.al_trace = trace;
             al_peer = peer;
             al_kind = kind;
             al_bytes_in = bytes_in;
             al_bytes_out = !bytes_out;
             al_wall_ms = wall_ms;
             al_outcome = !outcome;
             al_findings = !findings;
             al_diags = !diags_n;
             al_cache_hits = !cache_hits;
           });
      let spans =
        if tracing then
          span ~trace ~depth:0 "serve.request"
            ~args:[ ("kind", kind); ("peer", peer) ]
            ~begin_us
          :: !spans
        else []
      in
      if
        Mctel.Flight.record t.flight ~trace ~kind ~peer ~begin_us ~wall_ms
          ~outcome:!outcome ~spans
      then Mcobs.inc m_flight_notable
    end
  in
  let fault () =
    Mcobs.inc m_faults;
    outcome := "fault"
  in
  (* ship the request to a pooled worker and forward its response
     frames verbatim, minus the trailer — the worker renders with the
     CLI's own code, and this address space never touches request
     data.  On worker failure (already retried once inside the pool)
     degrade to a structured R_error. *)
  let dispatch () =
    let hop_us = Mcobs.now_us () in
    let r =
      Mcsup.dispatch ~queue:m_queue t.sup
        (Proto.encode_request (with_trace_id trace req))
    in
    let hop args =
      if tracing then
        spans :=
          [ span ~trace ~depth:1 "serve.dispatch" ~args ~begin_us:hop_us ]
    in
    match r with
    | Ok reply ->
      let frames, trailers = Worker.split_trailers reply.Mcsup.rp_frames in
      let dropped =
        List.fold_left
          (fun n (tr : Worker.trailer) -> n + tr.tr_spans_dropped)
          0 trailers
      in
      hop
        ([
           ("worker_pid", string_of_int reply.Mcsup.rp_pid);
           ("attempt", string_of_int reply.Mcsup.rp_attempt);
         ]
        @ if dropped > 0 then [ ("spans_dropped", string_of_int dropped) ]
          else []);
      List.iter
        (fun (tr : Worker.trailer) ->
          cache_hits :=
            !cache_hits
            + Option.value ~default:0
                (List.assoc_opt "mcheck_unit_cache_hits_total"
                   tr.tr_metrics.Mcobs.m_counters);
          spans := !spans @ absorb tr)
        trailers;
      (* one coalesced write: the whole frame list is already in hand
         (nothing was streamed during dispatch), so forwarding it frame
         by frame would only pay a syscall per diagnostic *)
      let buf = Buffer.create 65536 in
      List.iter
        (fun payload ->
          bytes_out := !bytes_out + Proto.header_len + String.length payload;
          Buffer.add_string buf (Proto.frame payload))
        frames;
      let b = Buffer.to_bytes buf in
      let n = Bytes.length b in
      let rec wall off =
        if off < n then wall (off + Unix.write fd b off (n - off))
      in
      wall 0;
      let last = List.nth frames (List.length frames - 1) in
      (match Proto.decode_response last with
      | Ok (Proto.R_done { rd_exit; rd_findings; rd_diags }) ->
        outcome := outcome_of_exit rd_exit;
        findings := rd_findings;
        diags_n := rd_diags
      | Ok (Proto.R_error _) -> fault ()
      | _ -> outcome := "ok")
    | Error f ->
      hop [ ("failure", Mcsup.failure_class f) ];
      fault ();
      send_counted
        (Proto.R_error ("worker failed: " ^ Mcsup.describe_failure f))
  in
  match admit t with
  | `Draining ->
    Mcobs.inc m_refused;
    outcome := "refused";
    Fun.protect ~finally:finish_log (fun () ->
        send_counted (Proto.R_error "draining: request refused"))
  | `Shed ms ->
    Mcobs.inc m_shed;
    outcome := "overloaded";
    Fun.protect ~finally:finish_log (fun () ->
        send_counted (Proto.R_overloaded { ro_retry_after_ms = ms }))
  | `Admitted ->
    Fun.protect
      ~finally:(fun () ->
        finish_inflight t;
        finish_log ())
      dispatch

(* control requests get the same accounting as checks — a trace id,
   the latency histogram, and an access-log line — without the
   admission/session machinery *)
let answer t fd ~peer ~kind ~bytes_in resp =
  let t0 = Unix.gettimeofday () in
  let payload = Proto.encode_response resp in
  Fun.protect
    ~finally:(fun () ->
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      Mcobs.observe m_req_ms wall_ms;
      Mcobs.inc ~by:bytes_in m_bytes_in;
      Mcobs.inc
        ~by:(Proto.header_len + String.length payload)
        m_bytes_out;
      ignore
        (Mctel.Accesslog.log t.access
           {
             Mctel.Accesslog.al_trace = Mctel.Trace.mint ();
             al_peer = peer;
             al_kind = kind;
             al_bytes_in = bytes_in;
             al_bytes_out = Proto.header_len + String.length payload;
             al_wall_ms = wall_ms;
             al_outcome =
               (match resp with Proto.R_error _ -> "error" | _ -> "ok");
             al_findings = 0;
             al_diags = 0;
             al_cache_hits = 0;
           }))
    (fun () -> Proto.write_frame fd payload)

(* the per-request strictness knob is reserved on the wire; the daemon
   applies its configured parse mode (see Proto.check_opts docs) *)
let handle_request t fd ~peer ~bytes_in req =
  match req with
  | Proto.Ping -> answer t fd ~peer ~kind:"ping" ~bytes_in Proto.R_ok
  | Proto.Stats Proto.S_text ->
    answer t fd ~peer ~kind:"stats" ~bytes_in (Proto.R_text (stats_text t))
  | Proto.Stats Proto.S_json ->
    answer t fd ~peer ~kind:"stats" ~bytes_in (Proto.R_text (stats_json t))
  | Proto.Metrics Proto.M_prom ->
    answer t fd ~peer ~kind:"metrics" ~bytes_in
      (Proto.R_text (Mcobs.to_prometheus ()))
  | Proto.Metrics Proto.M_json ->
    answer t fd ~peer ~kind:"metrics" ~bytes_in
      (Proto.R_text (Mcobs.to_json ()))
  | Proto.Flight ->
    answer t fd ~peer ~kind:"flight" ~bytes_in
      (Proto.R_text (Mctel.Flight.dump_json t.flight))
  | Proto.Drain ->
    initiate_drain t;
    answer t fd ~peer ~kind:"drain" ~bytes_in Proto.R_ok
  | Proto.Reload -> (
    match Mcheck_api.load_metal t.cfg.metal_paths with
    | Error msg ->
      answer t fd ~peer ~kind:"reload" ~bytes_in
        (Proto.R_error ("reload failed: " ^ msg))
    | Ok _ ->
      (* roll every worker: each retiring worker publishes its warm
         cache on EOF, each fresh one reloads the specs from disk *)
      Mcsup.retire_all t.sup;
      answer t fd ~peer ~kind:"reload" ~bytes_in Proto.R_ok)
  (* the request's -c selection overrides the worker session's, per
     call, so findings counts and exit codes match a local run with the
     same flags *)
  | Proto.Check_files (opts, _) ->
    run_check t fd ~peer ~kind:"check_files" ~bytes_in req opts
  | Proto.Check_buffer (opts, _, _) ->
    run_check t fd ~peer ~kind:"check_buffer" ~bytes_in req opts

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let peer_string fd =
  match Unix.getpeername fd with
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (ip, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port
  | exception _ -> "unknown"

let handle_conn t fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.idle_timeout
   with _ -> ());
  let peer = peer_string fd in
  let rec loop () =
    match Proto.read_frame fd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* idle past the timeout: reap the connection (clients
         reconnect cheaply); unconditional so a drain never waits on a
         silent peer *)
      ()
    | exception Unix.Unix_error _ -> ()
    | Error "eof" -> ()
    | Error msg ->
      (* framing is broken; answer once and hang up *)
      (try send fd (Proto.R_error ("protocol error: " ^ msg)) with _ -> ());
      Mcobs.inc m_proto_errors
    | Ok payload -> (
      let bytes_in = Proto.header_len + String.length payload in
      match Proto.decode_request payload with
      | Error msg ->
        (try send fd (Proto.R_error ("protocol error: " ^ msg))
         with _ -> ());
        Mcobs.inc m_proto_errors
      | Ok req -> (
        match handle_request t fd ~peer ~bytes_in req with
        | () -> loop ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
          ->
          (* the client hung up mid-reply: a per-connection event worth
             counting, never a fault-barrier trip *)
          Mcobs.inc m_client_aborts
        | exception Unix.Unix_error _ ->
          (* client went away mid-reply *)
          ()))
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with _ -> ());
      locked t.mu (fun () ->
          t.conns <- t.conns - 1;
          Mcobs.set m_conns t.conns;
          Condition.broadcast t.cond))
    loop

(* ------------------------------------------------------------------ *)
(* Metrics exposition                                                  *)
(* ------------------------------------------------------------------ *)

let rec http_write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    http_write_all fd s (off + n) (len - n)
  end

let contains_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* liveness vs readiness: /healthz answers 200 while the process can
   answer at all (an orchestrator restarts on failure); /readyz goes
   503 once draining or when the worker pool has no live workers (a
   balancer stops routing, the process keeps finishing in-flight
   work) *)
let ready t = (not (draining t)) && Mcsup.alive t.sup >= 1

(* the smallest useful scrape endpoint: HTTP/1.0, four routes, close
   after each response — enough for Prometheus, curl, an orchestrator
   probe, and the CI smoke *)
let serve_metrics_http t sock =
  let handle fd =
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () ->
        try
          (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0 with _ -> ());
          let buf = Bytes.create 2048 in
          let n = try Unix.read fd buf 0 2048 with _ -> 0 in
          let req = Bytes.sub_string buf 0 n in
          let line =
            match String.index_opt req '\r' with
            | Some i -> String.sub req 0 i
            | None -> req
          in
          let status, ctype, body =
            if contains_sub line "/healthz" then ("200 OK", "text/plain", "ok\n")
            else if contains_sub line "/readyz" then
              if ready t then ("200 OK", "text/plain", "ready\n")
              else ("503 Service Unavailable", "text/plain", "not ready\n")
            else if contains_sub line ".json" then
              ("200 OK", "application/json", Mcobs.to_json ())
            else
              ( "200 OK",
                "text/plain; version=0.0.4",
                Mcobs.to_prometheus () )
          in
          let resp =
            Printf.sprintf
              "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: \
               %d\r\nConnection: close\r\n\r\n%s"
              status ctype (String.length body) body
          in
          http_write_all fd resp 0 (String.length resp)
        with _ -> ())
  in
  let rec loop () =
    if not (draining t) then begin
      (match Unix.select [ sock ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true sock with
        | exception Unix.Unix_error _ -> ()
        | fd, _ -> handle fd)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (try Unix.close sock with _ -> ())

(* ------------------------------------------------------------------ *)
(* The accept loop                                                     *)
(* ------------------------------------------------------------------ *)

let run t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  Mcobs.logf Mcobs.Normal "mcheckd: listening on %s"
    (Proto.addr_to_string t.cfg.addr);
  let metrics_thread =
    Option.map
      (fun sock ->
        Mcobs.logf Mcobs.Normal "mcheckd: metrics on %s"
          (Proto.addr_to_string
             (Option.get t.cfg.telemetry.tel_metrics_addr));
        Thread.create (fun () -> serve_metrics_http t sock) ())
      t.msock
  in
  let rec loop () =
    let finished =
      locked t.mu (fun () ->
          t.is_draining && t.conns = 0 && t.inflight_n = 0)
    in
    if not finished then begin
      (match Unix.select [ t.lsock ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.lsock with
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          ()
        | fd, _ ->
          if locked t.mu (fun () -> t.is_draining) then (
            (* refuse politely rather than leaving the peer hanging *)
            (try send fd (Proto.R_error "draining: connection refused")
             with _ -> ());
            try Unix.close fd with _ -> ())
          else begin
            locked t.mu (fun () ->
                t.conns <- t.conns + 1;
                Mcobs.set m_conns t.conns);
            ignore (Thread.create (fun () -> handle_conn t fd) ())
          end)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (try Unix.close t.lsock with _ -> ());
  (match t.cfg.addr with
  | Proto.Unix_sock path -> ( try Unix.unlink path with _ -> ())
  | Proto.Tcp _ -> ());
  Option.iter Thread.join metrics_thread;
  (match t.cfg.telemetry.tel_metrics_addr with
  | Some (Proto.Unix_sock path) -> ( try Unix.unlink path with _ -> ())
  | _ -> ());
  (* every in-flight request has finished (the drain condition above),
     so this only retires idle workers — each publishes its cache on
     EOF and exits cleanly *)
  Mcsup.close t.sup;
  Mctel.Accesslog.close t.access;
  Mcobs.logf Mcobs.Normal "mcheckd: drained, %d request(s) served"
    (Mcobs.counter_value m_requests)
