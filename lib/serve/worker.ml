(* Worker — the Mcsup instantiation for the serve tier.  See the
   interface.  The main loop lives here rather than in lib/supervise
   because it needs Proto and Mcheck_api; Mcsup stays protocol-
   agnostic underneath. *)

let env_key = "MCSUP_WORKER"

type wconfig = {
  wc_jobs : int;
  wc_incremental : bool;
  wc_strict : bool;
  wc_fuel : int option;
  wc_deadline_ms : float option;
  wc_checkers : string list;
  wc_metal_paths : string list;
  wc_cache_dir : string option;
  wc_mem_mb : int option;
  wc_cpu_s : int option;
  wc_allow_chaos : bool;
  wc_tracing : bool;
}

(* The init frame crosses exec between two instances of the *same*
   binary, so Marshal is sound; a version marker catches the only way
   that can go wrong (a stale supervisor exec'ing a newer binary). *)
let init_tag = "mcw2"
let encode_init wc = Marshal.to_string (init_tag, wc) []

let decode_init s =
  match (Marshal.from_string s 0 : string * wconfig) with
  | tag, wc when String.equal tag init_tag -> Ok wc
  | _ -> Error "worker init: version mismatch"
  | exception _ -> Error "worker init: undecodable"

(* ------------------------------------------------------------------ *)
(* The trailer                                                         *)
(* ------------------------------------------------------------------ *)

type trailer = {
  tr_origin_s : float;
  tr_spans : Mcobs.span list;
  tr_spans_dropped : int;
  tr_metrics : Mcobs.metrics;
}

(* Marshal for the same reason as the init frame.  The tag keeps a
   trailer apart from every Proto response, whose first byte is a
   small tag number. *)
let trailer_tag = "mcw-trailer2"
let encode_trailer tr = trailer_tag ^ Marshal.to_string (tr : trailer) []

let is_trailer = String.starts_with ~prefix:trailer_tag

let split_trailers frames =
  let trailers, frames = List.partition is_trailer frames in
  ( frames,
    List.filter_map
      (fun s ->
        match (Marshal.from_string s (String.length trailer_tag) : trailer) with
        | tr -> Some tr
        | exception _ -> None)
      trailers )

(* ------------------------------------------------------------------ *)
(* The codec                                                           *)
(* ------------------------------------------------------------------ *)

let codec =
  {
    Mcsup.cd_read = Proto.read_frame;
    cd_write = Proto.write_frame;
    cd_class =
      (fun payload ->
        if is_trailer payload then Mcsup.More
        else
          match Proto.decode_response payload with
          | Ok (Proto.R_diag _) -> Mcsup.More
          | Ok _ -> Mcsup.Final
          | Error _ -> Mcsup.Garbage);
    cd_split = Proto.split_frame;
  }

let pool_config ~size ~wall_ms wc =
  {
    (Mcsup.default_config codec) with
    Mcsup.sp_size = size;
    sp_env_key = env_key;
    sp_init = encode_init wc;
    sp_wall_ms = wall_ms;
    sp_name = "mcheckd";
  }

(* ------------------------------------------------------------------ *)
(* Chaos units                                                         *)
(* ------------------------------------------------------------------ *)

(* In-band fault injections, recognized by buffer name only when the
   init config allows them.  They model the pathological translation
   units the supervisor exists for: a spin the fuel budget misses, an
   allocation storm, a blown stack, and outright death mid-request.
   [__chaos_sleep_<ms>__*] is not a fault at all — it stretches an
   otherwise-normal check so campaigns can kill workers mid-request
   deterministically (the local mirror session checks the same buffer
   without sleeping and must produce identical diagnostics). *)

let chaos_sleep_prefix = "__chaos_sleep_"

let sleep_ms_of_name name =
  let p = chaos_sleep_prefix in
  let pl = String.length p in
  if String.length name > pl && String.sub name 0 pl = p then
    match String.index_from_opt name pl '_' with
    | Some i -> int_of_string_opt (String.sub name pl (i - pl))
    | None -> None
  else None

let chaos_spin () =
  (* non-allocating, so RLIMIT_AS never saves us: only the supervisor
     deadline (SIGTERM) or RLIMIT_CPU (SIGXCPU/SIGKILL) ends this *)
  let r = ref 0 in
  while !r >= 0 do
    r := (!r + 1) land max_int
  done

let chaos_oom () =
  let rec go acc = go (String.make 65536 'x' :: acc) in
  ignore (go [])

let chaos_stack () =
  let rec f n = if n = 0 then 0 else 1 + f (n + 1) in
  ignore (f 1)

(* ------------------------------------------------------------------ *)
(* The worker main loop                                                *)
(* ------------------------------------------------------------------ *)

let render_opts (o : Proto.check_opts) =
  {
    Mcheck_api.ro_explain = o.Proto.co_explain;
    ro_verbose = o.Proto.co_verbose;
    ro_quiet = o.Proto.co_quiet;
  }

(* Diag frames are batched and flushed with the final frame rather than
   written one syscall at a time: the supervisor collects a request's
   whole frame list before forwarding any of it, so write granularity
   is invisible to the client — but per-frame writes cost a cross-
   process wakeup each, which dominates warm-path dispatch latency on
   diag-heavy batches.  A size cap bounds worker memory; a partial
   flush mid-stream is just stream bytes arriving early. *)
let out_buf = Buffer.create 65536
let out_flush_bytes = 262_144

let flush_out () =
  let n = Buffer.length out_buf in
  if n > 0 then begin
    let b = Buffer.to_bytes out_buf in
    Buffer.clear out_buf;
    let rec go off =
      if off < n then go (off + Unix.write Unix.stdin b off (n - off))
    in
    go 0
  end

let add_frame payload =
  Buffer.add_string out_buf (Proto.frame payload);
  if Buffer.length out_buf >= out_flush_bytes then flush_out ()

let reply resp =
  add_frame (Proto.encode_response resp);
  match resp with Proto.R_diag _ -> () | _ -> flush_out ()

(* The trailer must fit in one frame however large the request: keep
   at most this many spans, the longest ones.  A span is never shorter
   than a span it encloses, so what survives is the top of the span
   tree ([api.check_files], [mcd.schedule], ...) and what goes is the
   per-unit leaves. *)
let max_trailer_spans = 4096

let cap_spans spans =
  let n = List.length spans in
  if n <= max_trailer_spans then (spans, 0)
  else
    let by f a b = Float.compare (f a) (f b) in
    ( List.stable_sort (by (fun sp -> -.sp.Mcobs.sp_dur_us)) spans
      |> List.filteri (fun i _ -> i < max_trailer_spans)
      |> List.stable_sort (by (fun sp -> sp.Mcobs.sp_begin_us)),
      n - max_trailer_spans )

let trailer_frame ~trace ~metrics0 =
  let spans = if trace = "" then [] else Mcobs.drain_trace trace in
  let kept, dropped = cap_spans spans in
  let tr =
    {
      tr_origin_s = Mcobs.origin_s;
      tr_spans = kept;
      tr_spans_dropped = dropped;
      tr_metrics = Mcobs.diff (Mcobs.metrics ()) metrics0;
    }
  in
  let frame = encode_trailer tr in
  (* spans with outsized arguments could still overflow the frame: the
     metrics matter more than the spans, so send them alone *)
  if String.length frame <= Proto.max_payload / 2 then frame
  else
    encode_trailer
      { tr with tr_spans = []; tr_spans_dropped = List.length spans }

(* Runs the check under the request's trace id (the daemon resolved it
   before dispatch) and answers with the diag frames, the trailer, and
   the final frame.  The frames are exactly what a local run renders:
   the daemon forwards them verbatim, so any divergence here is a
   wire-visible byte difference the differential oracle would catch. *)
let run_and_reply opts work =
  let trace = opts.Proto.co_trace in
  let metrics0 = Mcobs.metrics () in
  let oom = ref false in
  let final =
    Mcobs.with_trace trace (fun () ->
        match work () with
        | (report : Mcheck_api.report) ->
          let ropts = render_opts opts in
          let diags = Mcheck_api.report_diags report in
          List.iter
            (fun (d : Diag.t) ->
              reply
                (Proto.R_diag
                   {
                     Proto.d_checker = d.Diag.checker;
                     d_severity = Diag.severity_string d.Diag.severity;
                     d_internal = Robust.is_internal d;
                     d_text = Mcheck_api.render_diag ropts d;
                   }))
            diags;
          Proto.R_done
            {
              rd_exit = Robust.exit_code report.Mcheck_api.r_outcome;
              rd_findings = report.Mcheck_api.r_findings;
              rd_diags = List.length diags;
            }
        | exception Mcheck_api.Robust_exit out ->
          Proto.R_done
            { rd_exit = Robust.exit_code out; rd_findings = 0; rd_diags = 0 }
        | exception exn ->
          oom := (match exn with Out_of_memory -> true | _ -> false);
          Proto.R_error (Engine.describe_fault exn))
  in
  add_frame (trailer_frame ~trace ~metrics0);
  reply final;
  (* the failed request's garbage still fills the address space that
     RLIMIT_AS allows: collect it now, or the next request's first
     large allocation runs out of memory too.  After the reply, so the
     collection does not count against the supervisor's deadline. *)
  if !oom then Gc.full_major ()

let handle_request wc session req =
  match req with
  | Proto.Ping -> reply Proto.R_ok
  | Proto.Check_files (opts, paths) ->
    run_and_reply opts (fun () ->
        Mcheck_api.Session.check_files ~checkers:opts.Proto.co_checkers
          session paths)
  | Proto.Check_buffer (opts, name, contents) ->
    if wc.wc_allow_chaos then begin
      (* death injections happen outside the fault barrier — that is
         their entire point *)
      if String.equal name "__chaos_exit__" then exit 7;
      if String.equal name "__chaos_kill__" then
        Unix.kill (Unix.getpid ()) Sys.sigkill
    end;
    run_and_reply opts (fun () ->
        if wc.wc_allow_chaos then begin
          if String.equal name "__chaos_spin__" then chaos_spin ();
          if String.equal name "__chaos_oom__" then chaos_oom ();
          if String.equal name "__chaos_stack__" then chaos_stack ();
          match sleep_ms_of_name name with
          | Some ms -> Thread.delay (float_of_int ms /. 1000.)
          | None -> ()
        end;
        Mcheck_api.Session.check_buffer ~checkers:opts.Proto.co_checkers
          session ~name ~contents)
  | Proto.Stats _ | Proto.Metrics _ | Proto.Flight | Proto.Drain
  | Proto.Reload ->
    reply (Proto.R_error "request kind not supported in a worker")

let worker_main () : unit =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  Mcobs.set_verbosity Mcobs.Quiet;
  match Proto.read_frame Unix.stdin with
  | Error _ | (exception _) -> exit 2
  | Ok init -> (
    match decode_init init with
    | Error _ -> exit 2
    | Ok wc -> (
      (* hard OS limits before any request data is touched; failures
         are advisory (the supervisor's wall deadline backstops) *)
      Option.iter (fun mb -> ignore (Mcsup.set_mem_limit_mb mb)) wc.wc_mem_mb;
      Option.iter (fun s -> ignore (Mcsup.set_cpu_limit_s s)) wc.wc_cpu_s;
      Mcobs.set_enabled wc.wc_tracing;
      match Mcheck_api.load_metal wc.wc_metal_paths with
      | Error msg ->
        (try reply (Proto.R_error ("worker: " ^ msg)) with _ -> ());
        exit 1
      | Ok metal ->
        let api =
          {
            Mcheck_api.default_config with
            Mcheck_api.jobs = wc.wc_jobs;
            incremental = wc.wc_incremental;
            strict = wc.wc_strict;
            budget =
              { Engine.fuel = wc.wc_fuel; deadline_ms = wc.wc_deadline_ms };
            checkers = wc.wc_checkers;
            cache_dir = wc.wc_cache_dir;
            metal;
          }
        in
        let session = Mcheck_api.Session.create ~config:api () in
        reply Proto.R_ok;
        let served = ref 0 in
        let rec loop () =
          match Proto.read_frame Unix.stdin with
          | Error _ | (exception _) ->
            (* EOF: graceful retirement — publish the warm cache for
               the workers that come after us, then leave cleanly *)
            Mcheck_api.Session.close session;
            exit 0
          | Ok payload ->
            (match Proto.decode_request payload with
            | Error msg ->
              reply (Proto.R_error ("worker protocol error: " ^ msg))
            | Ok req -> handle_request wc session req);
            incr served;
            (* periodic publication keeps the shared directory warm
               even if this worker later dies mid-request *)
            if !served land 7 = 7 then Mcheck_api.Session.publish_cache session;
            (* spans recorded outside any trace are never harvested:
               sweep them now and then so the buffers stay bounded *)
            if !served land 0xff = 0 then ignore (Mcobs.drain_trace "");
            loop ()
        in
        loop ()))

let exit_if_worker () =
  if Mcsup.is_worker ~key:env_key then begin
    (try worker_main () with _ -> exit 3);
    exit 0
  end
