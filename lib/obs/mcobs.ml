(** Mcobs — the unified tracing, metrics, and logging layer.

    One structured-observability core shared by every stage of the
    checking pipeline (cfront, engine, mcd, api, serve, supervise, sim)
    and by the daemon's live exposition.  It keeps two kinds of record:

    - {b one metrics registry}: named counters, gauges and log-scale
      histograms.  A metric is a handle resolved once by name (at module
      initialisation, typically) and updated atomically, so it is safe
      and cheap inside [Mcd_pool] workers and daemon threads alike.
      Metrics are always on.  Every view — [mcheck --metrics], the
      [counters] of a {!snapshot}, Prometheus text and JSON, the
      daemon's [--stats], a serve worker's trailer — reads this one
      registry, so one fact is counted at one site.
    - {b spans}, recorded into a *domain-local* buffer obtained through
      [Domain.DLS]: no lock on the hot path, merged at {!snapshot} time
      from the coordinating domain after the workers have joined.
      Spans are gated on one atomic flag: with tracing disabled (the
      default) a span is a single boolean load around the traced thunk.

    The exporters read a snapshot ({!pp_summary}, {!export_chrome_file})
    or the registry ({!to_prometheus}, {!to_json}). *)

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

(* log lines go to stderr so they never pollute diagnostic output on
   stdout *)
let logf lvl fmt =
  Format.kasprintf
    (fun line ->
      if level_rank lvl <= Atomic.get verbosity && lvl <> Quiet then begin
        prerr_string line;
        prerr_newline ()
      end)
    fmt

(* ------------------------------------------------------------------ *)
(* The metrics registry                                                *)
(* ------------------------------------------------------------------ *)

(* Log-scale latency histogram; bucket [i] counts samples <= bounds.(i),
   the last bucket is the overflow. *)
let hist_bounds_ms = [| 0.01; 0.1; 1.0; 10.0; 100.0; 1000.0; 10000.0 |]

type hist_snapshot = {
  count : int;
  sum_ms : float;
  max_ms : float;
  buckets : int array;
}

type counter = int Atomic.t
type gauge = int Atomic.t

type hist = {
  h_mu : Mutex.t;
  mutable h_count : int;
  mutable h_sum_ms : float;
  mutable h_max_ms : float;
  h_buckets : int array;  (* length hist_bounds_ms + 1 *)
}

type metric = Counter of counter | Gauge of gauge | Hist of hist

(* name -> (help, metric); a labeled series is keyed by its full series
   name, [family{key="value"}] *)
let registry : (string, string * metric) Hashtbl.t = Hashtbl.create 128
let registry_mu = Mutex.create ()

let register name help make select =
  Mutex.protect registry_mu (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (_, m) -> (
        match select m with
        | Some h -> h
        | None ->
          invalid_arg
            (Printf.sprintf "Mcobs: %s is registered as another kind" name))
      | None ->
        let m = make () in
        Hashtbl.add registry name (help, m);
        Option.get (select m))

let counter ?(help = "") name =
  register name help
    (fun () -> Counter (Atomic.make 0))
    (function Counter c -> Some c | _ -> None)

let counter_labeled ?help name ~label:(k, v) =
  counter ?help (Printf.sprintf "%s{%s=%S}" name k v)

let gauge ?(help = "") name =
  register name help
    (fun () -> Gauge (Atomic.make 0))
    (function Gauge g -> Some g | _ -> None)

let hist ?(help = "") name =
  register name help
    (fun () ->
      Hist
        {
          h_mu = Mutex.create ();
          h_count = 0;
          h_sum_ms = 0.;
          h_max_ms = 0.;
          h_buckets = Array.make (Array.length hist_bounds_ms + 1) 0;
        })
    (function Hist h -> Some h | _ -> None)

let inc ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let counter_value c = Atomic.get c
let set g v = Atomic.set g v
let add g by = ignore (Atomic.fetch_and_add g by)

let observe h ms =
  let rec bucket i =
    if i >= Array.length hist_bounds_ms || ms <= hist_bounds_ms.(i) then i
    else bucket (i + 1)
  in
  let i = bucket 0 in
  Mutex.protect h.h_mu (fun () ->
      h.h_count <- h.h_count + 1;
      h.h_sum_ms <- h.h_sum_ms +. ms;
      if ms > h.h_max_ms then h.h_max_ms <- ms;
      h.h_buckets.(i) <- h.h_buckets.(i) + 1)

let hist_snapshot h =
  Mutex.protect h.h_mu (fun () ->
      {
        count = h.h_count;
        sum_ms = h.h_sum_ms;
        max_ms = h.h_max_ms;
        buckets = Array.copy h.h_buckets;
      })

(* every registered metric, sorted by name; values are read after the
   registry lock is dropped (each read is individually consistent) *)
let listing () =
  Mutex.protect registry_mu (fun () ->
      Hashtbl.fold
        (fun name (help, m) acc -> (name, help, m) :: acc)
        registry [])
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Registry values and deltas                                          *)
(* ------------------------------------------------------------------ *)

type metrics = {
  m_counters : (string * int) list;
  m_hists : (string * hist_snapshot) list;
}

let metrics () =
  let l = listing () in
  {
    m_counters =
      List.filter_map
        (function n, _, Counter c -> Some (n, Atomic.get c) | _ -> None)
        l;
    m_hists =
      List.filter_map
        (function n, _, Hist h -> Some (n, hist_snapshot h) | _ -> None)
        l;
  }

(* A histogram's max is not subtractable: a delta carries the later
   max, an upper bound of the window's, so the max of merged deltas is
   still the max of every sample merged. *)
let diff later earlier =
  {
    m_counters =
      List.filter_map
        (fun (n, v) ->
          let v0 =
            Option.value ~default:0 (List.assoc_opt n earlier.m_counters)
          in
          if v = v0 then None else Some (n, v - v0))
        later.m_counters;
    m_hists =
      List.filter_map
        (fun (n, (h : hist_snapshot)) ->
          match List.assoc_opt n earlier.m_hists with
          | Some h0 when h0.count = h.count -> None
          | Some h0 ->
            Some
              ( n,
                {
                  h with
                  count = h.count - h0.count;
                  sum_ms = h.sum_ms -. h0.sum_ms;
                  buckets =
                    Array.mapi (fun i b -> b - h0.buckets.(i)) h.buckets;
                } )
          | None -> if h.count = 0 then None else Some (n, h))
        later.m_hists;
  }

let merge d =
  List.iter (fun (n, by) -> inc ~by (counter n)) d.m_counters;
  List.iter
    (fun (n, (s : hist_snapshot)) ->
      let h = hist n in
      Mutex.protect h.h_mu (fun () ->
          h.h_count <- h.h_count + s.count;
          h.h_sum_ms <- h.h_sum_ms +. s.sum_ms;
          h.h_max_ms <- Float.max h.h_max_ms s.max_ms;
          Array.iteri
            (fun i b -> h.h_buckets.(i) <- h.h_buckets.(i) + b)
            s.buckets))
    d.m_hists

(* ------------------------------------------------------------------ *)
(* Domain-local span buffers                                           *)
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

let current_trace () = Atomic.get ambient_trace

let with_trace trace f =
  let prev = Atomic.get ambient_trace in
  Atomic.set ambient_trace trace;
  Fun.protect ~finally:(fun () -> Atomic.set ambient_trace prev) f

type buffer = {
  b_tid : int;
  mutable b_spans : span list;  (* reverse completion order *)
  mutable b_nspans : int;
  mutable b_dropped : int;
  mutable b_depth : int;
}

(* Buffers stay registered after their domain joins; [snapshot] reads
   them from the coordinating domain once the workers are quiet. *)
let buffers_mu = Mutex.create ()
let buffers : buffer list ref = ref []

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
        }
      in
      Mutex.protect buffers_mu (fun () -> buffers := b :: !buffers);
      b)

let buffer () = Domain.DLS.get buffer_key
let all_buffers () = Mutex.protect buffers_mu (fun () -> !buffers)

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

let with_span ?(args = []) ?result_args name f =
  if not (enabled ()) then f ()
  else begin
    let b = buffer () in
    let depth = b.b_depth in
    b.b_depth <- depth + 1;
    let t0 = now_us () in
    let finish extra =
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
          sp_args = (match extra with [] -> args | _ -> args @ extra);
        }
    in
    match f () with
    | r ->
      finish (match result_args with Some g -> g r | None -> []);
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish [];
      Printexc.raise_with_backtrace e bt
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  spans : span list;  (** every domain, ascending begin time *)
  counters : (string * int) list;  (** the registry's non-zero counters *)
  hists : (string * hist_snapshot) list;
  dropped_spans : int;
}

let by_begin a b =
  let c = Float.compare a.sp_begin_us b.sp_begin_us in
  if c <> 0 then c else Int.compare a.sp_tid b.sp_tid

(** Every domain's spans plus the registry's values.  Call from the
    coordinating domain while no instrumented worker is running — the
    same discipline [Mcd] already imposes on its result slots. *)
let snapshot () : snapshot =
  let buffers = all_buffers () in
  let m = metrics () in
  {
    spans =
      List.concat_map (fun b -> List.rev b.b_spans) buffers
      |> List.sort by_begin;
    counters = List.filter (fun (_, v) -> v <> 0) m.m_counters;
    hists = List.filter (fun (_, h) -> h.count > 0) m.m_hists;
    dropped_spans = List.fold_left (fun acc b -> acc + b.b_dropped) 0 buffers;
  }

(** Clear every span buffer and zero every counter and histogram
    (gauges keep their values).  Same calling discipline as
    {!snapshot}. *)
let reset () =
  List.iter
    (fun b ->
      b.b_spans <- [];
      b.b_nspans <- 0;
      b.b_dropped <- 0;
      b.b_depth <- 0)
    (all_buffers ());
  List.iter
    (function
      | _, _, Counter c -> Atomic.set c 0
      | _, _, Gauge _ -> ()
      | _, _, Hist h ->
        Mutex.protect h.h_mu (fun () ->
            h.h_count <- 0;
            h.h_sum_ms <- 0.;
            h.h_max_ms <- 0.;
            Array.fill h.h_buckets 0 (Array.length h.h_buckets) 0))
    (listing ())

(** Remove and return every span recorded under [trace], across all
    domains, leaving everything else (other traces' spans, the
    registry) in place — unlike {!reset}, this is safe to interleave
    with other requests' aggregate metrics.  Same calling discipline as
    {!snapshot}: no domain may be concurrently recording under this
    trace. *)
let drain_trace trace =
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
    (all_buffers ());
  List.sort by_begin !matched

(* ------------------------------------------------------------------ *)
(* Quantiles                                                           *)
(* ------------------------------------------------------------------ *)

(* Estimate the p-quantile of a log-scale histogram: walk the
   cumulative counts to the bucket holding the ceil(p*n)-th sample and
   interpolate linearly inside it.  Monotone in p by construction (the
   target rank is monotone, interpolation within a bucket is monotone,
   and consecutive buckets share their boundary), and always bracketed
   by the bucket's bounds, the upper one capped at the recorded max: an
   estimate never exceeds the largest sample. *)
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
          let bound =
            if i < Array.length hist_bounds_ms then hist_bounds_ms.(i)
            else Float.infinity
          in
          let hi = Float.max lo (Float.min bound h.max_ms) in
          let frac = (target -. float_of_int cum) /. float_of_int n in
          let frac = Float.min 1. (Float.max 0. frac) in
          Some (lo +. (frac *. (hi -. lo)))
        end
        else go (i + 1) cum'
    in
    go 0 0
  end

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

(* ------------------------------------------------------------------ *)
(* Prometheus and JSON views of the registry                           *)
(* ------------------------------------------------------------------ *)

let family name =
  match String.index_opt name '{' with
  | Some i -> String.sub name 0 i
  | None -> name

(* a dot is not legal in a Prometheus name: dotted names are this
   process's profile counters, listed by snapshots only *)
let exposed () =
  List.filter (fun (name, _, _) -> not (String.contains (family name) '.'))
    (listing ())

let to_prometheus () =
  let b = Buffer.create 1024 in
  let last = ref "" in
  List.iter
    (fun (name, help, m) ->
      (* HELP/TYPE once per family, so a labeled family's series
         scrape as one family *)
      let head kind =
        let base = family name in
        if !last <> base then begin
          if help <> "" then Printf.bprintf b "# HELP %s %s\n" base help;
          Printf.bprintf b "# TYPE %s %s\n" base kind;
          last := base
        end
      in
      match m with
      | Counter c ->
        head "counter";
        Printf.bprintf b "%s %d\n" name (Atomic.get c)
      | Gauge g ->
        head "gauge";
        Printf.bprintf b "%s %d\n" name (Atomic.get g)
      | Hist h ->
        let s = hist_snapshot h in
        head "histogram";
        let cum = ref 0 in
        Array.iteri
          (fun i n ->
            cum := !cum + n;
            if i < Array.length hist_bounds_ms then
              Printf.bprintf b "%s_bucket{le=\"%g\"} %d\n" name
                hist_bounds_ms.(i) !cum)
          s.buckets;
        Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" name s.count;
        Printf.bprintf b "%s_sum %.6f\n" name s.sum_ms;
        Printf.bprintf b "%s_count %d\n" name s.count)
    (exposed ());
  Buffer.contents b

let to_json () =
  let b = Buffer.create 1024 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, help, m) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n  \"%s\": {" (json_escape name);
      if help <> "" then Printf.bprintf b "\"help\":\"%s\"," (json_escape help);
      (match m with
      | Counter c ->
        Printf.bprintf b "\"type\":\"counter\",\"value\":%d" (Atomic.get c)
      | Gauge g ->
        Printf.bprintf b "\"type\":\"gauge\",\"value\":%d" (Atomic.get g)
      | Hist h ->
        let s = hist_snapshot h in
        let q p = Option.value ~default:0. (quantile_hist s p) in
        Printf.bprintf b
          "\"type\":\"histogram\",\"count\":%d,\"sum_ms\":%.3f,\"max_ms\":%.3f,\"p50_ms\":%.3f,\"p90_ms\":%.3f,\"p99_ms\":%.3f,\"buckets\":[%s]"
          s.count s.sum_ms s.max_ms (q 0.5) (q 0.9) (q 0.99)
          (String.concat ","
             (Array.to_list (Array.map string_of_int s.buckets))));
      Buffer.add_char b '}')
    (exposed ());
  Buffer.add_string b "\n}\n";
  Buffer.contents b
