(** The mcheckd client library: one connection, synchronous
    request/response with streamed diagnostics.

    [mcheck --server ADDR] and the benchmark's load generator are thin
    wrappers over this; the printed bytes come straight from the daemon's
    {!Proto.diag_frame.d_text} fields, which the daemon renders with the
    same code the local CLI uses — that is what makes daemon and CLI
    output byte-identical.

    Failures are typed ({!err}): a refused connection (daemon down) is
    distinct from a timeout (daemon wedged), a mid-stream transport
    break, and a protocol violation — retry policy hangs off that
    distinction.  {!with_retry} adds the service-client loop: exponential
    backoff with jitter, a Retry-After floor for {!Overloaded} sheds,
    and a per-endpoint circuit breaker that stops hammering a dead
    daemon. *)

type error_kind =
  | E_refused  (** connection refused / socket absent: daemon not there *)
  | E_timeout  (** connect or read deadline expired: daemon unreachable
                   or wedged *)
  | E_transport  (** established channel broke: EOF mid-stream, EPIPE,
                     reset *)
  | E_proto  (** the daemon answered, but with malformed or
                 out-of-contract frames *)

type err = { e_kind : error_kind; e_msg : string }

val err_to_string : err -> string

type t

val connect :
  ?connect_timeout:float -> ?read_timeout:float -> Proto.addr ->
  (t, err) result
(** non-blocking connect bounded by [connect_timeout] (default 10s);
    every later read is bounded by [read_timeout] (default 60s, via
    [SO_RCVTIMEO]).  A dead daemon is [E_refused], an unresponsive one
    [E_timeout]. *)

val close : t -> unit

type check_result = {
  cr_exit : int;  (** the {!Robust} exit code computed server-side *)
  cr_findings : int;
  cr_diags : Proto.diag_frame list;  (** in arrival (= print) order *)
}

type check_outcome =
  | Checked of check_result
  | Refused of string
      (** the daemon's fault barrier answered [R_error]: exit-code-2
          (partial) semantics *)
  | Overloaded of int
      (** admission control shed the request; retry after this many ms.
          Guaranteed to arrive before any diagnostic frame — an
          [Overloaded] result means nothing partial was written. *)

val check_files :
  ?on_diag:(Proto.diag_frame -> unit) ->
  t ->
  Proto.check_opts ->
  string list ->
  (check_outcome, err) result
(** [on_diag] fires per streamed frame, before the result returns —
    the latency-hiding hook interactive callers print from *)

val check_buffer :
  ?on_diag:(Proto.diag_frame -> unit) ->
  t ->
  Proto.check_opts ->
  name:string ->
  contents:string ->
  (check_outcome, err) result

val stats : t -> (string, err) result
val stats_json : t -> (string, err) result

val metrics : t -> Proto.metrics_format -> (string, err) result
(** the daemon's live metrics registry, Prometheus text or JSON *)

val flight : t -> (string, err) result
(** the flight recorder's JSON dump; because the daemon commits a
    request's flight entry before reading the connection's next frame,
    a fetch on the same connection always sees the requests it just
    ran *)

val ping : t -> (unit, err) result

val drain : t -> (unit, err) result
(** ask the daemon to finish in-flight work and shut down *)

val reload : t -> (unit, err) result

(** {1 Retry, backoff, and the circuit breaker} *)

val with_retry :
  ?attempts:int ->
  ?base_backoff_ms:int ->
  ?connect_timeout:float ->
  ?read_timeout:float ->
  ?classify:('a -> int option) ->
  Proto.addr ->
  (t -> ('a, err) result) ->
  ('a, err) result
(** run [f] over a fresh connection, retrying transport-level failures
    (refused / timeout / transport — never [E_proto]) up to [attempts]
    times (default 4) with exponential backoff from [base_backoff_ms]
    (default 50) plus jitter.  [classify] may mark a *successful*
    result as retry-worthy and supply a minimum delay — the
    [Overloaded] Retry-After hook:
    [~classify:(function Overloaded ms -> Some ms | _ -> None)].

    Every attempt first consults the per-endpoint circuit breaker:
    after [threshold] consecutive failures the endpoint is open and
    calls fail fast ([E_refused]) for the cooldown, then a half-open
    probe decides.  Shed results ([classify = Some _]) count as breaker
    successes — an overloaded daemon is alive. *)

val set_breaker : ?threshold:int -> ?cooldown_ms:int -> unit -> unit
(** tune the breaker (process-wide; tests shrink the cooldown).
    Defaults: threshold 5, cooldown 2000ms. *)

val breaker_state : Proto.addr -> [ `Closed | `Open ]
val breaker_reset : unit -> unit
(** forget all breaker state (test isolation) *)
