(* Mctel — service-grade telemetry on top of Mcobs.  See the interface
   for the design; the implementation rules are (a) the request path is
   a short critical section, never I/O under a lock, and (b) bounded
   everything: rings, sampling, and drop-don't-die on log open
   failure. *)

(* ------------------------------------------------------------------ *)
(* Trace ids                                                           *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  let seq = Atomic.make 0

  (* time + pid + sequence: unique within a process, overwhelmingly
     unlikely to collide across the client/daemon pair that shares a
     request — and cheap enough to mint per request *)
  let mint () =
    let t_ms =
      Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1000.))
    in
    Printf.sprintf "t-%08x%04x%04x"
      (t_ms land 0xffffffff)
      (Unix.getpid () land 0xffff)
      (Atomic.fetch_and_add seq 1 land 0xffff)

  let id_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '.' || c = '_' || c = ':' || c = '-'

  let sanitize s =
    let n = String.length s in
    if n = 0 || n > 64 then None
    else if String.for_all id_char s then Some s
    else None
end

(* ------------------------------------------------------------------ *)
(* Structured access log                                               *)
(* ------------------------------------------------------------------ *)

module Accesslog = struct
  type entry = {
    al_trace : string;
    al_peer : string;
    al_kind : string;
    al_bytes_in : int;
    al_bytes_out : int;
    al_wall_ms : float;
    al_outcome : string;
    al_findings : int;
    al_diags : int;
    al_cache_hits : int;
  }

  (* The request path only formats nothing and writes nothing: [log]
     enqueues the entry under the mutex and a dedicated writer thread
     does the JSON formatting, the write, and the flush.  The queue is
     bounded; under overload entries are dropped (and counted) rather
     than stalling request service — degrade, don't fail. *)
  type t = {
    a_mu : Mutex.t;
    a_path : string option;
    a_sample : int;
    a_queue : entry Queue.t;
    a_limit : int;
    mutable a_dropped : int;
    mutable a_seq : int;
    mutable a_written : int;
    mutable a_closing : bool;
    mutable a_oc : out_channel option;
    a_reopen : bool Atomic.t;
    mutable a_writer : Thread.t option;
  }

  let open_channel path =
    match open_out_gen [ Open_append; Open_creat ] 0o644 path with
    | oc -> Some oc
    | exception Sys_error msg ->
      Mcobs.logf Mcobs.Normal "mcheckd: cannot open access log %s: %s" path
        msg;
      None

  let entry_to_json e =
    Printf.sprintf
      "{\"trace\":\"%s\",\"peer\":\"%s\",\"kind\":\"%s\",\"bytes_in\":%d,\"bytes_out\":%d,\"wall_ms\":%.3f,\"outcome\":\"%s\",\"findings\":%d,\"diags\":%d,\"cache_hits\":%d}"
      (Mcobs.json_escape e.al_trace)
      (Mcobs.json_escape e.al_peer)
      (Mcobs.json_escape e.al_kind)
      e.al_bytes_in e.al_bytes_out e.al_wall_ms
      (Mcobs.json_escape e.al_outcome)
      e.al_findings e.al_diags e.al_cache_hits

  let do_reopen t =
    (match t.a_oc with
    | Some oc -> ( try close_out oc with Sys_error _ -> ())
    | None -> ());
    t.a_oc <- Option.bind t.a_path open_channel

  (* one pass of the writer: called with the mutex held, returns with
     it held; drains the queue to a local batch and writes it with the
     lock released so [log] never waits on the filesystem *)
  let drain_batch t =
    let batch = ref [] in
    Queue.iter (fun e -> batch := e :: !batch) t.a_queue;
    Queue.clear t.a_queue;
    let batch = List.rev !batch in
    Mutex.unlock t.a_mu;
    if Atomic.get t.a_reopen then begin
      Atomic.set t.a_reopen false;
      do_reopen t
    end;
    let wrote = ref 0 in
    (match t.a_oc with
    | None -> ()
    | Some oc -> (
      try
        List.iter
          (fun e ->
            output_string oc (entry_to_json e);
            output_char oc '\n';
            incr wrote)
          batch;
        if !wrote > 0 then flush oc
      with Sys_error _ -> ()));
    Mutex.lock t.a_mu;
    t.a_written <- t.a_written + !wrote

  (* the writer ticks rather than waking per entry: a per-[log]
     [Condition.signal] would bounce the runtime lock between the
     serving thread and the writer on every request, which costs more
     than the write it was hiding.  A 25 ms tick keeps tail -f honest
     and the shutdown drain prompt. *)
  let tick_s = 0.025

  let writer_loop t () =
    let rec loop () =
      Mutex.lock t.a_mu;
      drain_batch t;
      if t.a_closing && Queue.is_empty t.a_queue then begin
        (match t.a_oc with
        | Some oc -> ( try close_out oc with Sys_error _ -> ())
        | None -> ());
        t.a_oc <- None;
        Mutex.unlock t.a_mu
      end
      else begin
        Mutex.unlock t.a_mu;
        Thread.delay tick_s;
        loop ()
      end
    in
    loop ()

  let create ?(sample = 1) ~path () =
    let t =
      {
        a_mu = Mutex.create ();
        a_path = path;
        a_sample = max 1 sample;
        a_queue = Queue.create ();
        a_limit = 4096;
        a_dropped = 0;
        a_seq = 0;
        a_written = 0;
        a_closing = false;
        a_oc = Option.bind path open_channel;
        a_reopen = Atomic.make false;
        a_writer = None;
      }
    in
    (* open failures disable the log with a warning; only a live
       channel earns a writer thread *)
    if t.a_oc <> None then t.a_writer <- Some (Thread.create (writer_loop t) ());
    t

  let log t e =
    match t.a_writer with
    | None -> false
    | Some _ ->
      Mutex.lock t.a_mu;
      let queued =
        if t.a_closing then false
        else begin
          t.a_seq <- t.a_seq + 1;
          if t.a_seq mod t.a_sample <> 0 then false
          else if Queue.length t.a_queue >= t.a_limit then begin
            t.a_dropped <- t.a_dropped + 1;
            false
          end
          else begin
            Queue.push e t.a_queue;
            true
          end
        end
      in
      Mutex.unlock t.a_mu;
      queued

  let reopen t = Atomic.set t.a_reopen true

  let lines_written t =
    Mutex.lock t.a_mu;
    let n = t.a_written in
    Mutex.unlock t.a_mu;
    n

  let close t =
    Mutex.lock t.a_mu;
    t.a_closing <- true;
    Mutex.unlock t.a_mu;
    match t.a_writer with
    | Some th ->
      Thread.join th;
      t.a_writer <- None
    | None -> ()
end

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

module Flight = struct
  type entry = {
    fl_trace : string;
    fl_kind : string;
    fl_peer : string;
    fl_begin_us : float;
    fl_wall_ms : float;
    fl_outcome : string;
    fl_notable : bool;
    fl_spans : Mcobs.span list;
  }

  type t = {
    f_mu : Mutex.t;
    f_capacity : int;
    f_threshold_ms : float;
    f_recent : entry Queue.t;
    f_notable : entry Queue.t;
    mutable f_retained : int;
  }

  let create ?(capacity = 64) ?(threshold_ms = 250.) () =
    {
      f_mu = Mutex.create ();
      f_capacity = max 1 capacity;
      f_threshold_ms = threshold_ms;
      f_recent = Queue.create ();
      f_notable = Queue.create ();
      f_retained = 0;
    }

  (* a clean verdict is unremarkable; everything else — slow, faulted,
     refused, degraded — is what post-hoc debugging needs *)
  let unremarkable = [ "clean"; "findings"; "ok" ]

  let push_bounded t q e =
    Queue.push e q;
    while Queue.length q > t.f_capacity do
      ignore (Queue.pop q)
    done

  let record t ~trace ~kind ~peer ~begin_us ~wall_ms ~outcome ~spans =
    let notable =
      wall_ms >= t.f_threshold_ms
      || not (List.mem outcome unremarkable)
    in
    let e =
      {
        fl_trace = trace;
        fl_kind = kind;
        fl_peer = peer;
        fl_begin_us = begin_us;
        fl_wall_ms = wall_ms;
        fl_outcome = outcome;
        fl_notable = notable;
        fl_spans = spans;
      }
    in
    Mutex.lock t.f_mu;
    push_bounded t t.f_recent e;
    if notable then begin
      t.f_retained <- t.f_retained + 1;
      push_bounded t t.f_notable e
    end;
    Mutex.unlock t.f_mu;
    notable

  let entries t =
    Mutex.lock t.f_mu;
    let notable = List.of_seq (Queue.to_seq t.f_notable) in
    let recent = List.of_seq (Queue.to_seq t.f_recent) in
    Mutex.unlock t.f_mu;
    (* the recent ring re-lists a still-recent notable entry; drop the
       duplicate by physical identity *)
    notable @ List.filter (fun e -> not (List.memq e notable)) recent

  let retained t =
    Mutex.lock t.f_mu;
    let n = t.f_retained in
    Mutex.unlock t.f_mu;
    n

  let span_json (sp : Mcobs.span) =
    Printf.sprintf
      "{\"name\":\"%s\",\"tid\":%d,\"begin_us\":%.1f,\"dur_us\":%.1f,\"depth\":%d,\"args\":{%s}}"
      (Mcobs.json_escape sp.Mcobs.sp_name)
      sp.Mcobs.sp_tid sp.Mcobs.sp_begin_us sp.Mcobs.sp_dur_us
      sp.Mcobs.sp_depth
      (String.concat ","
         (List.map
            (fun (k, v) ->
              Printf.sprintf "\"%s\":\"%s\"" (Mcobs.json_escape k)
                (Mcobs.json_escape v))
            sp.Mcobs.sp_args))

  let entry_json e =
    Printf.sprintf
      "{\"trace\":\"%s\",\"kind\":\"%s\",\"peer\":\"%s\",\"begin_us\":%.1f,\"wall_ms\":%.3f,\"outcome\":\"%s\",\"notable\":%b,\"spans\":[%s]}"
      (Mcobs.json_escape e.fl_trace)
      (Mcobs.json_escape e.fl_kind)
      (Mcobs.json_escape e.fl_peer)
      e.fl_begin_us e.fl_wall_ms
      (Mcobs.json_escape e.fl_outcome)
      e.fl_notable
      (String.concat "," (List.map span_json e.fl_spans))

  let dump_json t =
    Printf.sprintf "{\"threshold_ms\":%.1f,\"retained\":%d,\"entries\":[%s]}\n"
      t.f_threshold_ms (retained t)
      (String.concat ",\n" (List.map entry_json (entries t)))
end
