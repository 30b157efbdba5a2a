(** Mcsup — a supervised pool of pre-spawned worker processes.

    The served tier's fault barrier ({!Engine.describe_fault}) contains
    exceptions, but a checker that chews memory until the OOM killer
    wakes up, spins past every fuel probe, or blows the C stack takes
    the whole daemon down with it.  Mcsup moves that blast radius into
    child processes: the pool pre-spawns workers (re-executing the
    current binary with an environment gate — OCaml 5 forbids [fork]
    once domains exist), talks to each over a socketpair the child sees
    as fd 0, and enforces hard OS limits (RLIMIT_AS / RLIMIT_CPU, set
    by the worker at birth) plus a per-request wall deadline enforced
    here.  A worker that dies or blows the deadline is killed with
    escalation (TERM, grace, KILL), its failure classified from the
    trigger and [waitpid] status, and the request retried once on a
    fresh worker before the caller sees an error — a crashing unit
    costs one request one retry, never the service.

    The pool keeps one hot spare beyond its nominal size: when a
    worker is lost (or consumed by a burst), the spare is promoted
    instantly and a replacement spawns in the background, so respawn
    latency is off the request path.

    Mcsup is protocol-agnostic: a {!codec} tells it how to read one
    frame, write one frame, and classify a frame as more/final/garbage.
    The serve tier instantiates it with [Proto] framing in
    [Serve.Worker]. *)

(** {1 Worker-side helpers} *)

val is_worker : key:string -> bool
(** did the parent mark this process as a worker via environment
    variable [key]?  Hosting binaries call this (through their
    protocol module's [exit_if_worker]) before anything else. *)

val set_mem_limit_mb : int -> bool
(** cap this process's address space (RLIMIT_AS, soft = hard); false
    when the kernel refused — callers treat the limit as advisory
    because the supervisor's wall deadline still backstops *)

val set_cpu_limit_s : int -> bool
(** cap this process's CPU seconds (RLIMIT_CPU, hard = soft + 2s:
    SIGXCPU then SIGKILL) *)

(** {1 Failure classification} *)

type failure =
  | F_deadline  (** request exceeded the supervisor's wall deadline *)
  | F_signal of int  (** worker killed by this signal (e.g. SIGSEGV) *)
  | F_exit of int  (** worker exited with this nonzero status *)
  | F_channel of string  (** protocol breakdown: EOF mid-response,
                             garbage frame, write failure *)
  | F_spawn of string  (** could not get a live worker at all *)

val failure_class : failure -> string
(** stable label for metrics: [deadline] / [signal] / [exit] /
    [channel] / [spawn] *)

val describe_failure : failure -> string
(** one-line human description, used in the degraded [R_error] reason *)

(** {1 The pool} *)

type frame_class = More | Final | Garbage

type codec = {
  cd_read : Unix.file_descr -> (string, string) result;
      (** read one frame payload (the init handshake's ready frame);
          [Error] on EOF/truncation.  May raise
          [Unix.Unix_error (EAGAIN | EWOULDBLOCK, _, _)] when the
          supervisor's receive timeout fires — Mcsup maps that to
          {!F_deadline}. *)
  cd_write : Unix.file_descr -> string -> unit;
      (** write one frame payload; raises [Unix.Unix_error] on failure *)
  cd_class : string -> frame_class;
      (** [Final] ends the response, [More] keeps reading, [Garbage]
          kills the worker ({!F_channel}) *)
  cd_split :
    Bytes.t -> int -> int ->
    [ `Frame of string * int | `Need | `Bad of string ];
      (** incremental splitter over a byte window:
          [`Frame (payload, consumed)], [`Need] for a bare prefix,
          [`Bad] for framing garbage.  Dispatch drains reply bursts with
          bulk reads through it instead of paying two syscalls per
          frame — the difference between per-diagnostic and per-burst
          wakeups on diag-heavy responses. *)
}

type config = {
  sp_size : int;  (** nominal worker count (a hot spare rides on top) *)
  sp_env_key : string;  (** environment variable that gates worker mode *)
  sp_init : string;  (** first frame sent to each fresh worker (its
                         configuration); the worker must answer with one
                         ready frame *)
  sp_codec : codec;
  sp_wall_ms : float option;  (** per-request wall deadline (None = none) *)
  sp_grace_ms : float;  (** TERM → KILL escalation grace *)
  sp_spawn_timeout_ms : float;  (** give up on a worker that never
                                    answers its init frame *)
  sp_name : string;  (** metrics/log prefix, e.g. ["mcheckd"] *)
}

val default_config : codec -> config
(** size 2, env key ["MCSUP_WORKER"], empty init, 30s wall deadline,
    500ms grace, 10s spawn timeout *)

type t

val create : config -> (t, string) result
(** spawn [sp_size] workers plus the hot spare, waiting for each to
    answer its init frame; [Error] if any fails to come up (already
    spawned workers are torn down) *)

type reply = {
  rp_frames : string list;  (** every response frame, the final one last *)
  rp_pid : int;  (** the worker that answered *)
  rp_attempt : int;  (** 1, or 2 when the answer came from the retry *)
}

val dispatch :
  queue:Mcobs.gauge -> t -> string -> (reply, failure) result
(** run one request: block until a worker is idle, send the request
    frame, collect response frames until the codec says [Final], under
    the wall deadline.  On worker failure the worker is killed with
    escalation, replaced, and the request retried once on a fresh
    worker; only a second failure surfaces as [Error].  The returned
    frames are complete or the call is an [Error] — callers never see a
    partial response.  [queue] goes up by one while this call waits
    for a free worker and down when it is handed one. *)

val retire_all : t -> unit
(** graceful rolling restart: wait for in-flight requests, close every
    worker's channel (EOF lets it publish its cache and exit 0), reap,
    and respawn the full complement (a fresh worker re-reads whatever
    its init frame names, such as spec files) *)

val close : t -> unit
(** retire every worker (EOF, grace, escalation) without respawning;
    idempotent.  Blocks briefly for in-flight requests, then kills. *)

val alive : t -> int
(** live worker processes (idle + busy + spare) *)

val size : t -> int

val busy_pids : t -> int list
(** pids currently serving a request — for kill-mid-request injection *)

val kill_pid : t -> int -> bool
(** send SIGKILL to a worker by pid (chaos helper); false when the pid
    is not a live worker of this pool *)
