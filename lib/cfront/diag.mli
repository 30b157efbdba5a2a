(** Diagnostics emitted by checkers. *)

type severity = Error | Warning | Note

type step = {
  w_loc : Loc.t;  (** where the transition fired *)
  w_event : string;  (** the matched event (source expression, compact) *)
  w_from : string;  (** checker state before the event *)
  w_to : string;  (** checker state after ([stop] for abandoned paths) *)
}
(** one step of a diagnostic explanation: the state machine saw
    [w_event] at [w_loc] and moved from [w_from] to [w_to] *)

type t = {
  checker : string;  (** checker name, e.g. ["wait_for_db"] *)
  severity : severity;
  loc : Loc.t;  (** primary source location *)
  message : string;
  func : string;  (** enclosing function *)
  trace : Loc.t list;
      (** the execution path that reached the error, entry first — the
          paper's "back trace" *)
  witness : step list;
      (** the diagnostic explanation, in firing order; never empty (the
          engine attaches the real transition sequence, and [make]
          synthesises a one-step witness at the report site otherwise) *)
}

val step :
  loc:Loc.t -> event:string -> from_state:string -> to_state:string -> step

val make :
  ?severity:severity ->
  ?trace:Loc.t list ->
  ?witness:step list ->
  checker:string ->
  loc:Loc.t ->
  func:string ->
  string ->
  t

val with_witness : step list -> t -> t
(** replace the witness (no-op on an empty list) — how the engine
    attaches the real transition sequence to diagnostics the checker
    actions built with a synthetic one *)

val severity_string : severity -> string
val pp : Format.formatter -> t -> unit
val pp_with_trace : Format.formatter -> t -> unit

val pp_explain : Format.formatter -> t -> unit
(** the [--explain] rendering: the diagnostic plus its witness path, one
    (location, event, transition) line per step *)

val to_string : t -> string

val key : t -> string
(** location-free identity [checker|severity|func|message] — the
    comparison key for differential oracles whose two pipelines see the
    same program at different source positions (e.g. across a printer
    round trip) *)

val compare : t -> t -> int
(** source order, then severity, then message — a stable presentation
    order *)

val normalize : t list -> t list
(** sort and drop duplicates: the same violation is often reachable along
    many paths, but is reported once per site *)
