(** Mcobs — the unified tracing, metrics, and logging layer of the
    checking pipeline.

    Recording is domain-local and lock-free on the hot path: each domain
    owns a buffer (via [Domain.DLS]) into which spans, counters, and
    histogram samples are written; the one global mutex is taken only
    when a domain first creates its buffer and when the coordinating
    domain takes a {!snapshot} after the workers have joined.  That makes
    every instrumentation point safe inside [Mcd_pool] workers.

    Everything is gated on a single enable flag ({!set_enabled}, or the
    [OBS_TRACE=1] environment variable): with tracing off, a span costs
    one boolean load. *)

(** {1 Clock} *)

val now_us : unit -> float
(** microseconds since the process-wide trace origin; every domain shares
    the same timeline *)

val origin_s : float
(** the trace origin itself, in [Unix.gettimeofday] seconds.  A
    timestamp taken in another process whose origin is [o] moves onto
    this process's timeline by adding [(o -. origin_s) *. 1e6]. *)

(** {1 Enabling} *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** default: [true] iff the [OBS_TRACE] environment variable is [1],
    [true], or [yes] at startup *)

(** {1 Log sink and verbosity} *)

type level = Quiet | Normal | Verbose | Debug

val set_verbosity : level -> unit
val get_verbosity : unit -> level

val logf : level -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** log a line at the given level; printed through the sink (stderr by
    default) when the level is within the current verbosity.  [Quiet]
    lines are never printed — it is the verbosity floor, not a level to
    log at. *)

val set_sink : (level -> string -> unit) -> unit
(** redirect log lines (e.g. into a file, or to drop them) *)

(** {1 Recording} *)

type span = {
  sp_name : string;
  sp_tid : int;  (** domain id — one trace track per domain *)
  sp_trace : string;  (** request trace id; [""] = no trace context *)
  sp_begin_us : float;
  sp_dur_us : float;
  sp_depth : int;  (** nesting depth within its domain *)
  sp_args : (string * string) list;
}

(** {2 Trace context}

    The ambient trace id is a process-global cell (not domain-local, so
    freshly spawned [Mcd_pool] workers inherit it): every span records
    the ambient id at completion time, which attributes one request's
    spans end-to-end across server thread, session, and worker domains.
    The caller must serialize traced regions — the daemon's session
    mutex already does. *)

val set_trace : string -> unit
(** set the ambient trace id ([""] clears it) *)

val current_trace : unit -> string

val with_trace : string -> (unit -> 'a) -> 'a
(** run the thunk with the ambient trace id set, restoring the previous
    id afterwards (exceptions included) *)

val with_span :
  ?args:(string * string) list ->
  ?result_args:('a -> (string * string) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** run the thunk inside a named span; with tracing disabled this is just
    the thunk call.  [result_args] adds arguments computed from the
    thunk's result (only called when the span is recorded).  Exceptions
    propagate; the span is recorded either way. *)

val record_span :
  ?trace:string ->
  ?args:(string * string) list ->
  name:string ->
  begin_us:float ->
  dur_us:float ->
  unit ->
  unit
(** record a span whose endpoints the caller measured with {!now_us} —
    for sites that must feed one measurement into both a span and a
    derived statistic (e.g. [Mcd_pool] worker wall time).  [?trace]
    overrides the ambient trace id (the daemon's root request span is
    recorded after the ambient context is cleared). *)

val count : ?by:int -> string -> unit
(** bump a named counter (domain-local; merged at snapshot) *)

val observe : string -> float -> unit
(** add a sample (in milliseconds) to a named log-scale histogram *)

(** {1 Snapshots} *)

type hist_snapshot = {
  count : int;
  sum_ms : float;
  max_ms : float;
  buckets : int array;  (** log-scale buckets; last is overflow *)
}

type snapshot = {
  spans : span list;  (** every domain, ascending begin time *)
  counters : (string * int) list;  (** merged across domains, by name *)
  hists : (string * hist_snapshot) list;
  dropped_spans : int;  (** spans discarded by the per-domain cap *)
}

val snapshot : unit -> snapshot
(** merge every domain's buffer; call from the coordinating domain while
    no instrumented worker is running *)

val reset : unit -> unit
(** clear every buffer (same calling discipline as {!snapshot}) *)

val drain_trace : string -> span list
(** remove and return every span recorded under the given trace id
    (ascending begin time), leaving other traces' spans and all
    counters/histograms untouched — the flight recorder's per-request
    harvest.  Same calling discipline as {!snapshot} with respect to
    the drained trace. *)

val merge_counters :
  (string * int) list -> (string * int) list -> (string * int) list
(** union-with-(+), result sorted by name — associative and commutative
    (the qcheck suite pins this down), which is what makes the pairwise
    per-domain merge order-insensitive *)

val hist_bounds_ms : float array
(** upper bounds of the histogram buckets, in milliseconds *)

val quantile : snapshot -> string -> float -> float option
(** [quantile s name p] estimates the [p]-quantile (p in [0,1]) of the
    named histogram by linear interpolation inside the bucket holding
    the target rank: monotone in [p], bracketed by the bucket's bounds
    (the overflow bucket is capped at the recorded max).  [None] for an
    unknown name, an empty histogram, or [p] outside [0,1]. *)

val quantile_hist : hist_snapshot -> float -> float option
(** the same estimate on a bare histogram snapshot (what the live
    metrics registry aggregates) *)

(** {1 Exporters} *)

val json_escape : string -> string
(** escape a string for inclusion inside a JSON string literal (used by
    every JSON-shaped exporter here and in [Mctel]) *)

val pp_summary : Format.formatter -> snapshot -> unit
(** human-readable digest: counters, histograms, spans aggregated by
    name *)

val export_chrome : out_channel -> snapshot -> unit
(** Chrome trace-event JSON (["X"] complete events, one track per
    domain) — loadable in [chrome://tracing] and Perfetto *)

val export_chrome_file : string -> snapshot -> unit

val export_jsonl : out_channel -> snapshot -> unit
(** one self-describing JSON object per line (spans, counters,
    histograms) *)

val export_jsonl_file : string -> snapshot -> unit
