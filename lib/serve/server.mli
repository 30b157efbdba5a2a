(** The mcheckd daemon core: a listening socket, one thread per client
    connection, every check dispatched into a {!Mcsup} pool of worker
    processes ({!Worker}), each holding a warm {!Mcheck_api.Session}.

    Containment: a request that fails inside a worker (poisoned input,
    a checker crash that escapes the engine's own barriers) becomes an
    {!Proto.R_error} frame — exit-code-2 semantics on the wire; a
    worker that dies or blows its limits is replaced and the request
    retried once.  The daemon keeps serving either way.

    Observability: each worker's trailer frame brings back the
    request's spans and session-counter deltas, so the flight entry,
    the [Stats] session block and the [mcheck_*] metrics see into the
    workers.

    Lifecycle: {!run} accepts until a drain is initiated (a
    {!Proto.Drain} request, {!initiate_drain}, or a SIGINT/SIGTERM the
    driver routes there), then stops admitting new requests, finishes
    every admitted one, closes the listener, retires the workers (each
    publishes its cache), and returns.  {!Proto.Reload} re-validates
    the metal specs, then rolls every worker (in-flight requests finish
    first) without dropping connections. *)

type telemetry = {
  tel_tracing : bool;
      (** workers record each request's spans under its trace id and
          send them back; the daemon adds its own [serve.request] and
          [serve.dispatch] spans and keeps the tree in the flight
          recorder.  [false] leaves the span trees empty. *)
  tel_access_log : string option;  (** JSONL path; [None] disables *)
  tel_sample : int;  (** write every n-th access-log line *)
  tel_flight_capacity : int;  (** entries per flight-recorder ring *)
  tel_flight_threshold_ms : float;
      (** requests at least this slow are always retained *)
  tel_metrics_addr : Proto.addr option;
      (** when set, serve the live metrics over HTTP on this address:
          [GET /metrics] (Prometheus text) and [GET /metrics.json] *)
}

val default_telemetry : telemetry
(** tracing on, no access log, flight ring of 64 with a 250 ms
    threshold, no HTTP exposition *)

type supervise = {
  sv_workers : int;  (** pool size (a hot spare rides on top) *)
  sv_mem_mb : int option;  (** per-worker RLIMIT_AS *)
  sv_cpu_s : int option;  (** per-worker RLIMIT_CPU *)
  sv_wall_ms : float option;  (** per-request wall deadline *)
  sv_cache_dir : string option;
      (** shared multi-writer cache directory (see {!Mcd_cache}) *)
  sv_allow_chaos : bool;
      (** let workers recognize [__chaos_*__] fault-injection buffer
          names — campaigns only, never production *)
}

val default_supervise : supervise
(** 2 workers, 1 GiB / 30 s limits, 30 s wall deadline, no shared
    cache dir, chaos off *)

type config = {
  addr : Proto.addr;
  api : Mcheck_api.config;
  metal_paths : string list;
      (** metal spec files, validated at {!create} and on [Reload];
          each worker compiles them into its session *)
  idle_timeout : float;
      (** per-connection receive timeout in seconds; an idle client is
          kept, but during a drain its connection is closed once the
          timeout fires *)
  telemetry : telemetry;
  supervise : supervise;
      (** the worker pool every check is dispatched into: a poisoned
          unit can kill a worker (one request pays one transparent
          retry) but never this daemon *)
  max_inflight : int;
      (** admission bound: past this many in-flight checks new ones
          are shed with [R_overloaded] + Retry-After instead of
          queueing without bound *)
}

val default_config : config
(** unix socket ["mcheckd.sock"], incremental in-memory cache, 1 job,
    {!default_telemetry}, {!default_supervise}, [max_inflight = 64] *)

type t

val create : config -> (t, string) result
(** validate the metal specs, bind and listen (stale unix-socket files
    are replaced), and start the worker pool — every worker has
    answered its init frame before this returns *)

val run : t -> unit
(** the blocking accept loop; returns after a completed drain *)

val initiate_drain : t -> unit
(** same effect as a wire [Drain]: safe from a signal handler or
    another thread *)

val draining : t -> bool

val supervisor : t -> Mcsup.t
(** the worker pool — chaos campaigns pick their kill victims here *)

val flight_recorder : t -> Mctel.Flight.t

val reopen_access_log : t -> unit
(** {!Mctel.Accesslog.reopen} on the daemon's access log: async-signal-
    safe, so [bin/mcheckd]'s SIGHUP handler calls it directly for log
    rotation *)
