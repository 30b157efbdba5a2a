(** The daemon ≡ CLI differential oracle (Mcfuzz's sixth): every
    generated program is checked twice — through a plain sequential
    local {!Mcheck_api.Session} and over the wire against a live daemon
    whose worker processes run the warm parallel/incremental
    configuration — and the rendered diagnostics, findings count, and
    exit code must be byte-for-byte identical.  The extra process hop,
    the frame relay and the trailer stripping must not change a byte.

    Plug {!check} into [Fuzz_driver.run ~extra_oracle]; failures carry
    the reproducing seed like every other Mcfuzz oracle. *)

type t
(** a running daemon (its accept loop on a thread of this process)
    plus the local mirror session *)

val default_config : Server.config
(** {!Server.default_config} with 2 domains per check, incremental —
    the warm path worth differencing — and default telemetry (tracing
    on), so the differential exercises the fully instrumented path *)

val start : ?config:Server.config -> unit -> t
(** start the daemon with [config] (default {!default_config}; its
    [addr] is replaced by a fresh temp unix socket) and wait until it
    answers pings.  Failures are tagged ["serve"].
    @raise Failure if the daemon cannot start *)

val server : t -> Server.t
(** the daemon itself — telemetry tests read its access log, flight
    recorder and worker pool directly *)

val addr : t -> Proto.addr

val check : t -> Fuzz_gen.program -> Fuzz_oracle.failure list

val stop : t -> unit
(** drain the daemon, join its thread, close the mirror session *)
