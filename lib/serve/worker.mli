(** Worker — the serve tier's instantiation of {!Mcsup}.

    [Mcsup] is protocol-agnostic; this module supplies the [Proto]
    codec, the worker-process main loop, and the init-frame
    configuration record the supervisor ships to each fresh worker.
    The worker answers a check exactly as a local run renders it —
    [R_diag] frames rendered with {!Mcheck_api.render_diag}, then
    [R_done]; strict-mode input failures as [R_done]; the fault
    barrier as [R_error] — so the daemon forwards its frames to the
    client verbatim.  Just before the final frame it sends one
    {!trailer} frame, which the daemon strips: the request's spans and
    registry delta, so the daemon's telemetry sees into the worker. *)

type wconfig = {
  wc_jobs : int;
  wc_incremental : bool;
  wc_strict : bool;
  wc_fuel : int option;
  wc_deadline_ms : float option;  (** per-unit engine deadline *)
  wc_checkers : string list;
  wc_metal_paths : string list;  (** workers re-load specs by path —
                                     closures cannot cross [exec] *)
  wc_cache_dir : string option;  (** shared multi-writer cache dir *)
  wc_mem_mb : int option;  (** RLIMIT_AS, set by the worker at birth *)
  wc_cpu_s : int option;  (** RLIMIT_CPU *)
  wc_allow_chaos : bool;
      (** recognize [__chaos_*__] buffer names as fault injections
          (spin / oom / stack / exit / kill / sleep); a production
          worker treats them as ordinary file names *)
  wc_tracing : bool;
      (** record spans: each check runs under the request's trace id
          and the trailer carries them back *)
}

type trailer = {
  tr_origin_s : float;
      (** the worker's {!Mcobs.origin_s}: span times are relative to it *)
  tr_spans : Mcobs.span list;
      (** the request's spans, drained: the {!max_trailer_spans}
          longest, in start order *)
  tr_spans_dropped : int;  (** the request's spans left out *)
  tr_metrics : Mcobs.metrics;
      (** what the request moved in the worker's {!Mcobs} registry
          (counters and histogram buckets), for the daemon to
          {!Mcobs.merge} *)
}

val max_trailer_spans : int
(** the most spans one trailer carries, so the trailer stays far below
    {!Proto.max_payload} however many units a request runs *)

val split_trailers : string list -> string list * trailer list
(** a worker's reply frames without the trailer, and the trailer
    decoded (Marshal behind a tag: both ends are the same binary) *)

val pool_config : size:int -> wall_ms:float option -> wconfig -> Mcsup.config
(** a ready {!Mcsup.config}: [Proto] codec, {!env_key}, the encoded
    init frame for [wconfig] *)

val exit_if_worker : unit -> unit
(** the hosting binary's first statement: when the environment gate is
    set, run the worker main loop on fd 0 and [exit] — never returns
    in a worker process, a no-op otherwise *)
