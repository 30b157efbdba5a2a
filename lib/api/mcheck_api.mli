(** Mcheck_api — the session-oriented facade over the whole checking
    pipeline.

    One {!Session.t} wraps frontend → {!Prep} → {!Registry}/{!Mcd} →
    {!Robust} exit policy behind three calls ([create] / [check_*] /
    [close]), and is the single entry point every executable —
    [bin/mcheck], [bin/mcheckd], [bin/mcfuzz], [bin/mcfault] — goes
    through.  A session owns the warm state that makes repeated checks
    cheap: the content-hash {!Mcd_cache} survives across [check_*]
    calls, so a long-lived holder (the [mcheckd] daemon) pays the cold
    cost once and serves every later request incrementally.

    Sessions are not thread-safe: concurrent holders (the daemon)
    serialize [check_*] calls externally. *)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  jobs : int;  (** Mcd domain count; 1 = sequential *)
  incremental : bool;
      (** keep the content-hash result cache warm across [check_*]
          calls (and across processes via [cache_file]), plus a
          session-local whole-request memo: a content-identical
          re-check is answered without re-parsing or re-scheduling
          (sound — the pipeline is deterministic in its inputs) *)
  cache_file : string option;
      (** load the cache here at [create], persist it at [close]; with
          it, [check_files]/[check_buffer] also keep each file's parsed,
          annotated unit in the file's front-end index, so a later
          session parses only the files whose text or typedef scope
          changed (see {!Mcd_cache.unit_entry}) *)
  cache_dir : string option;
      (** multi-writer shared cache directory: merge every valid
          segment at [create], publish this session's entries with
          {!Session.publish_cache} (and at [close]) — the discipline
          that lets concurrent worker processes share warm results *)
  budget : Engine.budget;
      (** per-unit fuel / deadline for every checker, built-in or
          metal, at any [jobs] *)
  strict : bool;
      (** fail fast on unreadable or unparseable input instead of
          recovering *)
  checkers : string list;
      (** report only these checkers ([] = all); containment-layer
          ["internal"] entries always pass the filter *)
  metal : (string * Registry.checker) list;
      (** when non-empty, run these loaded metal specs (see
          {!load_metal}) instead of the nine built-in checkers, through
          the same scheduler; their diagnostics form one [("metal", _)]
          entry, spec by spec, and [checkers] does not filter them *)
}

val default_config : config
(** sequential, non-incremental, no budget, recovering parser, all
    checkers — exactly what bare [mcheck FILE] runs *)

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type report = {
  r_parse : Diag.t list;
      (** lex/parse recovery diagnostics: files in input order, each
          file's in source order ({!Diag.compare}) *)
  r_results : (string * Diag.t list) list;
      (** checker-grouped results, selection applied; the containment
          layer's [("internal", _)] entry rides along when present *)
  r_findings : int;  (** non-internal checker diagnostics *)
  r_outcome : Robust.outcome;
  r_sched : Mcd.stats;  (** the Mcd scheduler's statistics *)
}

val report_diags : report -> Diag.t list
(** every diagnostic in print order: parse/lex first, then checker
    groups in registry order *)

type render_opts = {
  ro_explain : bool;
  ro_verbose : bool;
  ro_quiet : bool;
}

val render_diag : render_opts -> Diag.t -> string
(** exactly the bytes [mcheck] prints for one diagnostic (trailing
    newline included) — shared by the local CLI path and the daemon's
    streamed frames so the two are byte-identical *)

val print_report : render_opts -> report -> unit
(** the CLI's stdout for a file-mode run: every diagnostic, the
    ["no violations found"] trailer when clean, and the partial/unusable
    outcome log line (via the Mcobs sink) *)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

module Session : sig
  type t
  (** A session keeps no tallies of its own: each [check_*] call counts
      itself in the {!Mcobs} registry, cumulative over every session in
      the process — [mcheck_session_requests_total],
      [mcheck_findings_total], the [mcheck_check_ms] histogram,
      [mcheck_memo_probes_total]/[mcheck_memo_hits_total] (the
      whole-request memo), and the profile counters [api.files_checked]
      and [api.diags_emitted]; the scheduler's unit counters are
      {!Mcd}'s.  A call's own numbers are in its {!report}. *)

  val create : ?config:config -> unit -> t

  (** Every [check_*] call takes an optional [?checkers] selection that
      overrides [config.checkers] for that call only — the daemon uses
      it to honour each request's [-c] flags against the one shared
      session, keeping findings counts (and therefore exit codes)
      identical to a local run with the same flags. *)

  val check_files : ?checkers:string list -> t -> string list -> report
  (** read, parse (recovering unless [strict]), derive the default
      handler spec, run the configured pipeline.  Unreadable files are
      reported on stderr and skipped (or fail the run under
      [strict]). *)

  val check_buffer :
    ?checkers:string list -> t -> name:string -> contents:string -> report
  (** check an in-memory buffer as if it were a file named [name] —
      the editor-traffic entry point *)

  val check_jobs :
    t -> Mcd.job list -> (string * Diag.t list) list list * report
  (** check several protocols in one pass — one Mcd pool over the whole
      job list, exactly like [mcheck] with no file arguments; the
      per-job result lists keep checker grouping for per-protocol
      printing, the report aggregates *)

  val publish_cache : t -> unit
  (** publish the warm cache as a content-addressed segment in
      [config.cache_dir] (no-op otherwise); lock-free, atomic, and
      failure-tolerant — errors are counted, never raised *)

  val close : t -> unit
  (** publish to [cache_dir] and persist to [cache_file] when set;
      idempotent *)
end

(* ------------------------------------------------------------------ *)
(* Shared pipeline-wiring helpers (were duplicated across the bins)    *)
(* ------------------------------------------------------------------ *)

val default_spec : Ast.tunit list -> Flash_api.spec
(** the CLI's default protocol spec: every void/no-arg function is a
    hardware handler, as xg++'s default tables assumed *)

val read_sources :
  strict:bool -> string list -> (string * string) list * int
(** read input files (prelude prepended), reporting and skipping
    unreadable ones; returns the survivors and the skip count.
    @raise Robust_exit under [strict] on the first unreadable file *)

exception Robust_exit of Robust.outcome
(** raised by strict-mode input failures after the error has been
    printed; drivers map it to [Robust.exit_code] *)

val parse_strict : (string * string) list -> Ast.tunit list
(** [Frontend.parse_strings] with the CLI's fail-fast error reporting:
    on any diagnostic, prints the earliest one in source order (as
    [FILE:LINE:COL: lexical error: ...] or [... parse error: ...]) and
    raises.
    @raise Robust_exit [Unusable] if the sources do not parse cleanly *)

val load_metal :
  string list -> ((string * Registry.checker) list, string) result
(** load metal spec files, each compiled to a checker ({!Mrun}).  The
    first unreadable or rejected spec fails the whole load (a broken
    spec makes any run meaningless); the error string carries the
    compiler's located, classified diagnostics, newline-separated *)

val corpus_jobs : Corpus.t -> Mcd.job list
(** one {!Mcd.job} per corpus protocol *)

val write_file : string -> string -> unit
(** write [contents] to [path] (the JSON-report helper the bins
    shared) *)
