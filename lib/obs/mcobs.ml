(** Mcobs — the unified tracing, metrics, and logging layer.

    One structured-observability core shared by every stage of the
    checking pipeline (cfront, engine, mcd, sim).  The design constraint
    is the [Mcd_pool]: instrumentation must be safe — and cheap — inside
    worker domains, so every recording operation writes only to a
    *domain-local* buffer obtained through [Domain.DLS].  No lock is
    taken on the hot path; the global registry mutex is touched exactly
    once per domain, when its buffer is first created.  Merging happens
    at {!snapshot} time, from the coordinating domain, after the workers
    have joined — which is the only moment the scheduler reads them
    anyway.

    Everything is gated on one atomic flag: with tracing disabled (the
    default) a span is a single boolean load around the traced thunk, so
    instrumented code paths cost nothing measurable.

    Three exporters read a snapshot:
    - {!pp_summary} — a human-readable metric/span digest;
    - {!export_jsonl} — one JSON object per line (spans, counters,
      histograms), easy to post-process;
    - {!export_chrome} — Chrome [chrome://tracing] / Perfetto trace-event
      format ("X" complete events, per-domain tracks). *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* One process-wide origin so timestamps from every domain share a
   timeline.  [Unix.gettimeofday] is the only clock the vendored
   toolchain offers; sampling both ends of a span on the same domain
   keeps durations monotonic in practice. *)
let t_origin = Unix.gettimeofday ()

let now_us () = (Unix.gettimeofday () -. t_origin) *. 1e6
let origin_s = t_origin

(* ------------------------------------------------------------------ *)
(* Enable flag and verbosity                                           *)
(* ------------------------------------------------------------------ *)

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "OBS_TRACE" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

type level = Quiet | Normal | Verbose | Debug

let level_rank = function Quiet -> 0 | Normal -> 1 | Verbose -> 2 | Debug -> 3

let level_of_rank = function
  | 0 -> Quiet
  | 1 -> Normal
  | 2 -> Verbose
  | _ -> Debug

let verbosity = Atomic.make (level_rank Normal)
let set_verbosity l = Atomic.set verbosity (level_rank l)
let get_verbosity () = level_of_rank (Atomic.get verbosity)

(* The log sink: where [logf] lines land.  Defaults to stderr so logs
   never pollute diagnostic output on stdout. *)
let sink : (level -> string -> unit) ref =
  ref (fun _ line ->
      prerr_string line;
      prerr_newline ())

let set_sink f = sink := f

let logf lvl fmt =
  Format.kasprintf
    (fun line ->
      if level_rank lvl <= Atomic.get verbosity && lvl <> Quiet then
        !sink lvl line)
    fmt

(* ------------------------------------------------------------------ *)
(* Domain-local buffers                                                *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_name : string;
  sp_tid : int;  (** domain id — one track per domain in the trace UI *)
  sp_trace : string;  (** request trace id; [""] = no trace context *)
  sp_begin_us : float;
  sp_dur_us : float;
  sp_depth : int;  (** nesting depth within its domain at record time *)
  sp_args : (string * string) list;
}

(* The ambient trace context.  One process-global cell rather than a
   DLS slot, deliberately: Mcd worker domains are spawned fresh for
   each scheduling pass, and a DLS value would not cross the spawn.
   The ambient trace is set only in a serve worker process, which runs
   one request at a time, so at most one traced request is in flight
   when Mcd domains run — the same discipline [snapshot] already leans
   on.  The daemon builds its own spans and never sets the cell. *)
let ambient_trace = Atomic.make ""

let set_trace trace = Atomic.set ambient_trace trace
let current_trace () = Atomic.get ambient_trace

let with_trace trace f =
  let prev = Atomic.get ambient_trace in
  Atomic.set ambient_trace trace;
  Fun.protect ~finally:(fun () -> Atomic.set ambient_trace prev) f

(* Log-scale latency histogram; bucket [i] counts samples <= bounds.(i),
   the last bucket is the overflow. *)
let hist_bounds_ms = [| 0.01; 0.1; 1.0; 10.0; 100.0; 1000.0; 10000.0 |]

type hist = {
  mutable h_count : int;
  mutable h_sum_ms : float;
  mutable h_max_ms : float;
  h_buckets : int array;  (* length hist_bounds_ms + 1 *)
}

type buffer = {
  b_tid : int;
  mutable b_spans : span list;  (* reverse completion order *)
  mutable b_nspans : int;
  mutable b_dropped : int;
  mutable b_depth : int;
  b_counters : (string, int ref) Hashtbl.t;
  b_hists : (string, hist) Hashtbl.t;
}

(* Buffers stay registered after their domain joins; [snapshot] reads
   them from the coordinating domain once the workers are quiet. *)
let registry_mutex = Mutex.create ()
let registry : buffer list ref = ref []

(* A runaway tracer must not take the process down with it: each domain
   keeps at most this many spans and counts the rest as dropped. *)
let max_spans_per_domain = 500_000

let buffer_key : buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          b_tid = (Domain.self () :> int);
          b_spans = [];
          b_nspans = 0;
          b_dropped = 0;
          b_depth = 0;
          b_counters = Hashtbl.create 32;
          b_hists = Hashtbl.create 16;
        }
      in
      Mutex.lock registry_mutex;
      registry := b :: !registry;
      Mutex.unlock registry_mutex;
      b)

let buffer () = Domain.DLS.get buffer_key

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let count ?(by = 1) name =
  if enabled () then begin
    let b = buffer () in
    match Hashtbl.find_opt b.b_counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add b.b_counters name (ref by)
  end

let observe name ms =
  if enabled () then begin
    let b = buffer () in
    let h =
      match Hashtbl.find_opt b.b_hists name with
      | Some h -> h
      | None ->
        let h =
          {
            h_count = 0;
            h_sum_ms = 0.;
            h_max_ms = 0.;
            h_buckets = Array.make (Array.length hist_bounds_ms + 1) 0;
          }
        in
        Hashtbl.add b.b_hists name h;
        h
    in
    h.h_count <- h.h_count + 1;
    h.h_sum_ms <- h.h_sum_ms +. ms;
    if ms > h.h_max_ms then h.h_max_ms <- ms;
    let rec bucket i =
      if i >= Array.length hist_bounds_ms || ms <= hist_bounds_ms.(i) then i
      else bucket (i + 1)
    in
    let i = bucket 0 in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1
  end

let push_span b sp =
  if b.b_nspans >= max_spans_per_domain then b.b_dropped <- b.b_dropped + 1
  else begin
    b.b_spans <- sp :: b.b_spans;
    b.b_nspans <- b.b_nspans + 1
  end

(** Record a span whose endpoints were measured by the caller (with
    {!now_us}) — used when one measurement must feed both a span and a
    derived statistic, so the wall time is sampled exactly once. *)
let record_span ?trace ?(args = []) ~name ~begin_us ~dur_us () =
  if enabled () then begin
    let b = buffer () in
    let sp_trace =
      match trace with Some tr -> tr | None -> Atomic.get ambient_trace
    in
    push_span b
      {
        sp_name = name;
        sp_tid = b.b_tid;
        sp_trace;
        sp_begin_us = begin_us;
        sp_dur_us = dur_us;
        sp_depth = b.b_depth;
        sp_args = args;
      }
  end

let with_span ?(args = []) name f =
  if not (enabled ()) then f ()
  else begin
    let b = buffer () in
    let depth = b.b_depth in
    b.b_depth <- depth + 1;
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        let dur = now_us () -. t0 in
        b.b_depth <- depth;
        push_span b
          {
            sp_name = name;
            sp_tid = b.b_tid;
            (* read at completion: workers inherit whatever request
               context was ambient while they ran *)
            sp_trace = Atomic.get ambient_trace;
            sp_begin_us = t0;
            sp_dur_us = dur;
            sp_depth = depth;
            sp_args = args;
          })
      f
  end

(* ------------------------------------------------------------------ *)
(* Snapshots and merging                                               *)
(* ------------------------------------------------------------------ *)

type hist_snapshot = {
  count : int;
  sum_ms : float;
  max_ms : float;
  buckets : int array;
}

type snapshot = {
  spans : span list;  (** every domain, ascending begin time *)
  counters : (string * int) list;  (** merged across domains, by name *)
  hists : (string * hist_snapshot) list;
  dropped_spans : int;
}

(* Counter merge: an associative, commutative union-with-(+) over
   name-sorted association lists.  Factored out (and exported) because
   the per-domain buffers are merged pairwise in arbitrary order, so
   associativity is exactly the property the qcheck suite pins down. *)
let merge_counters (a : (string * int) list) (b : (string * int) list) :
    (string * int) list =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some r -> r := !r + v
      | None -> Hashtbl.add tbl k (ref v))
    (a @ b);
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl []
  |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)

let merge_hist (a : hist_snapshot) (b : hist_snapshot) : hist_snapshot =
  {
    count = a.count + b.count;
    sum_ms = a.sum_ms +. b.sum_ms;
    max_ms = Float.max a.max_ms b.max_ms;
    buckets = Array.init (Array.length a.buckets) (fun i ->
        a.buckets.(i) + b.buckets.(i));
  }

let hist_snapshot_of (h : hist) : hist_snapshot =
  {
    count = h.h_count;
    sum_ms = h.h_sum_ms;
    max_ms = h.h_max_ms;
    buckets = Array.copy h.h_buckets;
  }

(** Merge every domain's buffer into one immutable snapshot.  Call from
    the coordinating domain while no instrumented worker is running —
    the same discipline [Mcd] already imposes on its result slots. *)
let snapshot () : snapshot =
  Mutex.lock registry_mutex;
  let buffers = !registry in
  Mutex.unlock registry_mutex;
  let spans =
    List.concat_map (fun b -> List.rev b.b_spans) buffers
    |> List.sort (fun a b ->
           let c = Float.compare a.sp_begin_us b.sp_begin_us in
           if c <> 0 then c else Int.compare a.sp_tid b.sp_tid)
  in
  let counters =
    List.fold_left
      (fun acc b ->
        merge_counters acc
          (Hashtbl.fold (fun k r l -> (k, !r) :: l) b.b_counters []))
      [] buffers
  in
  let hists =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun b ->
        Hashtbl.iter
          (fun k h ->
            let s = hist_snapshot_of h in
            match Hashtbl.find_opt tbl k with
            | Some prev -> Hashtbl.replace tbl k (merge_hist prev s)
            | None -> Hashtbl.add tbl k s)
          b.b_hists)
      buffers;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)
  in
  let dropped =
    List.fold_left (fun acc b -> acc + b.b_dropped) 0 buffers
  in
  { spans; counters; hists; dropped_spans = dropped }

(** Clear every registered buffer.  Same calling discipline as
    {!snapshot}. *)
let reset () =
  Mutex.lock registry_mutex;
  let buffers = !registry in
  Mutex.unlock registry_mutex;
  List.iter
    (fun b ->
      b.b_spans <- [];
      b.b_nspans <- 0;
      b.b_dropped <- 0;
      b.b_depth <- 0;
      Hashtbl.reset b.b_counters;
      Hashtbl.reset b.b_hists)
    buffers

(** Remove and return every span recorded under [trace], across all
    domains, leaving everything else (other traces' spans, counters,
    histograms) in place — unlike {!reset}, this is safe to interleave
    with other requests' aggregate metrics.  Same calling discipline as
    {!snapshot}: no domain may be concurrently recording under this
    trace. *)
let drain_trace trace =
  Mutex.lock registry_mutex;
  let buffers = !registry in
  Mutex.unlock registry_mutex;
  let matched = ref [] in
  List.iter
    (fun b ->
      let mine, rest =
        List.partition (fun sp -> String.equal sp.sp_trace trace) b.b_spans
      in
      if mine <> [] then begin
        b.b_spans <- rest;
        b.b_nspans <- List.length rest;
        matched := List.rev_append mine !matched
      end)
    buffers;
  List.sort
    (fun a b ->
      let c = Float.compare a.sp_begin_us b.sp_begin_us in
      if c <> 0 then c else Int.compare a.sp_tid b.sp_tid)
    !matched

(* ------------------------------------------------------------------ *)
(* Quantiles                                                           *)
(* ------------------------------------------------------------------ *)

(* Estimate the p-quantile of a log-scale histogram: walk the
   cumulative counts to the bucket holding the ceil(p*n)-th sample and
   interpolate linearly inside it.  Monotone in p by construction (the
   target rank is monotone, interpolation within a bucket is monotone,
   and consecutive buckets share their boundary), and always bracketed
   by the bucket's bounds; the overflow bucket is capped at the
   recorded max. *)
let quantile_hist (h : hist_snapshot) p =
  if h.count = 0 || Float.is_nan p || p < 0. || p > 1. then None
  else begin
    let target = p *. float_of_int h.count in
    let nb = Array.length h.buckets in
    let rec go i cum =
      if i >= nb then Some h.max_ms
      else
        let n = h.buckets.(i) in
        let cum' = cum + n in
        if n > 0 && float_of_int cum' >= target then begin
          let lo = if i = 0 then 0. else hist_bounds_ms.(i - 1) in
          let hi =
            if i < Array.length hist_bounds_ms then hist_bounds_ms.(i)
            else Float.max lo h.max_ms
          in
          let frac = (target -. float_of_int cum) /. float_of_int n in
          let frac = Float.min 1. (Float.max 0. frac) in
          Some (lo +. (frac *. (hi -. lo)))
        end
        else go (i + 1) cum'
    in
    go 0 0
  end

let quantile (s : snapshot) name p =
  match List.assoc_opt name s.hists with
  | None -> None
  | Some h -> quantile_hist h p

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_args args =
  String.concat ","
    (List.map
       (fun (k, v) ->
         Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
       args)

(* Chrome trace-event format: one "X" (complete) event per span, one
   process, one track (tid) per domain.  Loadable in chrome://tracing
   and Perfetto. *)
let export_chrome oc (s : snapshot) =
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun sp ->
      if !first then first := false else output_string oc ",";
      let args =
        if sp.sp_trace = "" then sp.sp_args
        else ("trace", sp.sp_trace) :: sp.sp_args
      in
      Printf.fprintf oc
        "\n\
         {\"name\":\"%s\",\"cat\":\"mcheck\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":1,\"tid\":%d,\"args\":{%s}}"
        (json_escape sp.sp_name) sp.sp_begin_us sp.sp_dur_us sp.sp_tid
        (json_args args))
    s.spans;
  (* counters ride along as metadata-style counter events at the end of
     the timeline so the numbers are visible in the UI too *)
  let t_end =
    List.fold_left
      (fun acc sp -> Float.max acc (sp.sp_begin_us +. sp.sp_dur_us))
      0. s.spans
  in
  List.iter
    (fun (name, v) ->
      if !first then first := false else output_string oc ",";
      Printf.fprintf oc
        "\n\
         {\"name\":\"%s\",\"cat\":\"mcheck\",\"ph\":\"C\",\"ts\":%.1f,\"pid\":1,\"tid\":0,\"args\":{\"value\":%d}}"
        (json_escape name) t_end v)
    s.counters;
  output_string oc "\n]}\n"

let export_chrome_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> export_chrome oc s)

(* JSON Lines: one self-describing object per line. *)
let export_jsonl oc (s : snapshot) =
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"type\":\"span\",\"name\":\"%s\",\"tid\":%d,\"trace\":\"%s\",\"begin_us\":%.1f,\"dur_us\":%.1f,\"depth\":%d,\"args\":{%s}}\n"
        (json_escape sp.sp_name) sp.sp_tid (json_escape sp.sp_trace)
        sp.sp_begin_us sp.sp_dur_us sp.sp_depth (json_args sp.sp_args))
    s.spans;
  List.iter
    (fun (name, v) ->
      Printf.fprintf oc "{\"type\":\"counter\",\"name\":\"%s\",\"value\":%d}\n"
        (json_escape name) v)
    s.counters;
  List.iter
    (fun (name, h) ->
      Printf.fprintf oc
        "{\"type\":\"histogram\",\"name\":\"%s\",\"count\":%d,\"sum_ms\":%.3f,\"max_ms\":%.3f,\"buckets\":[%s]}\n"
        (json_escape name) h.count h.sum_ms h.max_ms
        (String.concat ","
           (Array.to_list (Array.map string_of_int h.buckets))))
    s.hists

let export_jsonl_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> export_jsonl oc s)

(* Human-readable digest: counters, histograms, and spans aggregated by
   name (count / total / mean) — the Table 5/6-style timing breakdown. *)
let pp_summary ppf (s : snapshot) =
  Format.fprintf ppf "@[<v>== mcobs summary ==";
  if s.counters <> [] then begin
    Format.fprintf ppf "@,counters:";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "@,  %-36s %10d" name v)
      s.counters
  end;
  if s.hists <> [] then begin
    Format.fprintf ppf "@,histograms (ms):";
    List.iter
      (fun (name, h) ->
        let q p = Option.value ~default:0. (quantile_hist h p) in
        Format.fprintf ppf
          "@,  %-36s n=%-8d mean=%-8.3f p50=%-8.3f p90=%-8.3f p99=%-8.3f \
           max=%.2f"
          name h.count
          (if h.count = 0 then 0. else h.sum_ms /. float_of_int h.count)
          (q 0.5) (q 0.9) (q 0.99) h.max_ms)
      s.hists
  end;
  if s.spans <> [] then begin
    let tbl : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 32 in
    List.iter
      (fun sp ->
        match Hashtbl.find_opt tbl sp.sp_name with
        | Some (n, total) ->
          incr n;
          total := !total +. sp.sp_dur_us
        | None -> Hashtbl.add tbl sp.sp_name (ref 1, ref sp.sp_dur_us))
      s.spans;
    Format.fprintf ppf "@,spans (by name):";
    Hashtbl.fold (fun name (n, total) acc -> (name, !n, !total) :: acc) tbl []
    |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
    |> List.iter (fun (name, n, total_us) ->
           Format.fprintf ppf "@,  %-36s n=%-8d total=%8.2f ms  mean=%8.3f ms"
             name n (total_us /. 1000.)
             (total_us /. 1000. /. float_of_int n))
  end;
  if s.dropped_spans > 0 then
    Format.fprintf ppf "@,dropped spans: %d" s.dropped_spans;
  Format.fprintf ppf "@]"
