(** Mcobs — the unified tracing, metrics, and logging layer of the
    checking pipeline.

    {b Metrics} live in one process-wide registry of named counters,
    gauges and log-scale histograms.  A metric is a handle, resolved
    once by name (registration is idempotent) and updated atomically,
    so it is safe in [Mcd_pool] workers and daemon threads alike.
    Metrics are always on.  Every view reads this one registry:
    {!snapshot}'s counters, [mcheck --metrics], the Prometheus and JSON
    exposition ({!to_prometheus}, {!to_json}), [mcheckd --stats], and
    a serve worker's trailer ({!diff}, {!merge}).

    A name is either a Prometheus name ([mcheckd_requests_total],
    [mcsup_kills_total{sig="term"}]), which the exposition lists, or a
    dotted profile name ([engine.nodes_visited]), which only snapshots
    list: a dot is not legal in a Prometheus name.

    {b Spans} are domain-local and lock-free on the hot path: each
    domain owns a buffer (via [Domain.DLS]); the one buffer-list mutex
    is taken only when a domain first creates its buffer and when the
    coordinating domain takes a {!snapshot} after the pool's [run] has
    returned.  Spans are gated on a single enable flag ({!set_enabled},
    or the [OBS_TRACE=1] environment variable): with tracing off, a
    span costs one boolean load. *)

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

(** {1 Logging and verbosity} *)

type level = Quiet | Normal | Verbose | Debug

val set_verbosity : level -> unit
val get_verbosity : unit -> level

val logf : level -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** log a line to stderr when the level is within the current
    verbosity.  [Quiet] lines are never printed — it is the verbosity
    floor, not a level to log at. *)

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
    the pool's parked [Mcd_pool] workers see it): every span records
    the ambient id at completion time, which attributes one request's
    spans end-to-end across server thread, session, and worker domains.
    The caller must serialize traced regions — the daemon's session
    mutex already does. *)

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

(** {1 Metrics} *)

type counter
type gauge
type hist

(** Registration is idempotent by name: registering an existing name
    of the same kind returns the same handle, so any module can name a
    metric, and the first registration's help text is kept.
    @raise Invalid_argument if the name is registered as another kind *)

val counter : ?help:string -> string -> counter
val gauge : ?help:string -> string -> gauge

val hist : ?help:string -> string -> hist
(** log-scale latency histogram over {!hist_bounds_ms} (ms) *)

val counter_labeled : ?help:string -> string -> label:string * string -> counter
(** one series of a labeled counter family:
    [counter_labeled "kills_total" ~label:("sig", "term")] registers
    the series [kills_total{sig="term"}].  Exposition emits HELP/TYPE
    once per family (the name before ['{']). *)

val inc : ?by:int -> counter -> unit
val counter_value : counter -> int
val set : gauge -> int -> unit
val add : gauge -> int -> unit

val observe : hist -> float -> unit
(** add a sample in milliseconds *)

type hist_snapshot = {
  count : int;
  sum_ms : float;
  max_ms : float;
  buckets : int array;  (** log-scale buckets; last is overflow *)
}

val hist_snapshot : hist -> hist_snapshot

val hist_bounds_ms : float array
(** upper bounds of the histogram buckets, in milliseconds *)

(** {2 Values and deltas}

    What crosses a process boundary: a serve worker sends the {!diff}
    of its registry over one request, and the daemon {!merge}s it into
    its own, so the daemon's registry counts what its workers did. *)

type metrics = {
  m_counters : (string * int) list;  (** every counter series, by name *)
  m_hists : (string * hist_snapshot) list;  (** every histogram, by name *)
}

val metrics : unit -> metrics
(** the registry's current counter and histogram values (gauges are
    point values, not additive, and are left out) *)

val diff : metrics -> metrics -> metrics
(** [diff later earlier]: the counters and histograms that moved, by
    how much (a histogram's max is [later]'s) *)

val merge : metrics -> unit
(** add a {!diff} into this process's registry, registering any name
    it does not know yet *)

(** {1 Snapshots} *)

type snapshot = {
  spans : span list;  (** every domain, ascending begin time *)
  counters : (string * int) list;
      (** the registry's non-zero counters, by name *)
  gauges : (string * int) list;  (** the registry's non-zero gauges, by name *)
  hists : (string * hist_snapshot) list;  (** non-empty histograms *)
  dropped_spans : int;  (** spans discarded by the per-domain cap *)
}

val snapshot : unit -> snapshot
(** every domain's spans plus the registry's values; call from the
    coordinating domain while no instrumented worker is running *)

val reset : unit -> unit
(** clear every span buffer and zero every counter and histogram
    (gauges keep their values); same calling discipline as
    {!snapshot}.  Not for a process that serves its metrics: the
    exposition promises monotone counters. *)

val drain_trace : string -> span list
(** remove and return every span recorded under the given trace id
    (ascending begin time), leaving other traces' spans and the
    registry untouched — the flight recorder's per-request
    harvest.  Same calling discipline as {!snapshot} with respect to
    the drained trace. *)

val quantile_hist : hist_snapshot -> float -> float option
(** the same estimate on a bare histogram snapshot *)

(** {1 Exporters} *)

val json_escape : string -> string
(** escape a string for inclusion inside a JSON string literal (used by
    every JSON-shaped exporter here and in [Mctel]) *)

val to_prometheus : unit -> string
(** the registry's Prometheus-named metrics as Prometheus text
    exposition (version 0.0.4): HELP/TYPE comments, cumulative
    [_bucket{le=...}] series plus [_sum]/[_count] for histograms,
    sorted by metric name *)

val to_json : unit -> string
(** the same metrics as one JSON object keyed by metric name;
    histograms carry count, sum, max, buckets, and interpolated
    p50/p90/p99 *)

val pp_summary : Format.formatter -> snapshot -> unit
(** human-readable digest: counters, gauges, histograms, spans
    aggregated by name *)

val export_chrome_file : string -> snapshot -> unit
