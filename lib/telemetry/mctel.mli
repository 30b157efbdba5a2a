(** Mctel — the daemon's request telemetry on top of {!Mcobs}.

    Mcobs holds the process's one metrics registry and its spans; the
    daemon's Prometheus and JSON exposition, [--stats], and the
    worker trailers are views of that registry.  What a long-running
    daemon needs besides is per-request: which request was slow, and
    what it did.  Mctel adds three pieces for that:

    - {!Trace}: request trace ids, minted by the client (or the daemon
      when absent) and carried end-to-end through {!Mcobs}'s ambient
      span context;
    - {!Accesslog}: a structured JSONL access log, one line per
      request, with sampling and SIGHUP-safe reopen;
    - {!Flight}: a bounded flight recorder of recent request span
      trees with tail-based retention (slow or failed requests are
      always kept), so p99 debugging needs no pre-enabled tracing.

    Everything degrades rather than fails under volume — bounded
    rings, sampling, a bounded writer queue — the XCheck tolerance
    model applied to telemetry. *)

(** {1 Trace ids} *)

module Trace : sig
  val mint : unit -> string
  (** a fresh process-unique trace id (time + pid + sequence, hex) *)

  val sanitize : string -> string option
  (** accept a wire-supplied trace id: 1-64 chars drawn from
      [A-Za-z0-9._:-], else [None] (the daemon then mints its own) *)
end

(** {1 Structured access log} *)

module Accesslog : sig
  type entry = {
    al_trace : string;
    al_peer : string;
    al_kind : string;  (** request kind: [check_files], [ping], ... *)
    al_bytes_in : int;
    al_bytes_out : int;
    al_wall_ms : float;
    al_outcome : string;
        (** [clean]/[findings]/[partial]/[unusable] from {!Robust},
            or [fault]/[refused]/[ok]/[error] for the server paths *)
    al_findings : int;
    al_diags : int;
    al_cache_hits : int;
  }

  type t

  val create : ?sample:int -> path:string option -> unit -> t
  (** [path = None] disables the log entirely; [sample = n] writes
      every n-th entry (default 1 = all).  The file is opened in
      append mode; open failures disable the log with a warning rather
      than killing the daemon.  A live log owns one writer thread: the
      request path only enqueues, and the formatting, write, and flush
      happen off it. *)

  val log : t -> entry -> bool
  (** hand one entry to the writer thread (it lands as a flushed JSONL
      line, so tailing works); [false] when disabled, sampled out, or
      dropped because the bounded queue is full — requests are never
      stalled on the filesystem *)

  val reopen : t -> unit
  (** mark the log for reopen: the writer closes and reopens the file
      on its next tick (within 25 ms), before it writes its next batch
      — log rotation via SIGHUP.  Only sets a flag, so it is
      async-signal-safe. *)

  val lines_written : t -> int
  (** lines the writer has flushed to disk (trails {!log} by the queue
      depth; {!close} drains first, so it is exact afterwards) *)

  val close : t -> unit
end

(** {1 Flight recorder} *)

module Flight : sig
  type entry = {
    fl_trace : string;
    fl_kind : string;
    fl_peer : string;
    fl_begin_us : float;
    fl_wall_ms : float;
    fl_outcome : string;
    fl_notable : bool;
        (** retained by the tail-based rule, not just recency *)
    fl_spans : Mcobs.span list;  (** the request's span tree *)
  }

  type t

  val create : ?capacity:int -> ?threshold_ms:float -> unit -> t
  (** two bounded rings of [capacity] entries each (default 64): every
      request enters the recent ring; requests slower than
      [threshold_ms] (default 250) or whose outcome is not clean /
      findings / ok are notable and survive in their own ring after
      recency would have evicted them *)

  val record :
    t ->
    trace:string ->
    kind:string ->
    peer:string ->
    begin_us:float ->
    wall_ms:float ->
    outcome:string ->
    spans:Mcobs.span list ->
    bool
  (** record one request; [true] when the tail-based rule kept it as
      notable *)

  val entries : t -> entry list
  (** notable entries then recent ones, oldest first, deduplicated *)

  val retained : t -> int
  (** how many notable entries the tail-based rule has kept (total
      over the recorder's lifetime, not just those still in the ring) *)

  val dump_json : t -> string
  (** [{"threshold_ms":...,"entries":[...]}] — each entry carries its
      span tree as JSONL-style span objects *)

end
