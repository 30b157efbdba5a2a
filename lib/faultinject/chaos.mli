(** Service-tier chaos campaigns against a live supervised [mcheckd].

    Where {!Faultinject} plants faults inside one in-process pipeline,
    a chaos campaign boots a real daemon dispatching into supervised
    worker processes and attacks the service surface: workers killed
    mid-request, memory/stack/CPU bombs inside a worker, outright
    worker death, slowloris and garbage framing on the wire, cache
    directory corruption under concurrent writers, and admission-
    control overload bursts.

    The containment invariants are service-grade: the daemon process
    never dies, a drain under load loses zero admitted requests, and
    every answered check is byte-identical to the local CLI pipeline —
    the supervision layer must be invisible in the output.

    Campaigns are deterministic in their seed; a failure names a
    reproducible [(seed, index)] pair. *)

type klass =
  | Worker_kill  (** SIGKILL a busy worker mid-request *)
  | Worker_oom  (** allocation storm against RLIMIT_AS *)
  | Worker_stack  (** unbounded recursion *)
  | Worker_spin  (** non-allocating CPU spin against the wall deadline *)
  | Worker_death  (** the unit itself exits / SIGKILLs its process *)
  | Slowloris  (** a stalled partial frame header holds a connection *)
  | Garbage_frames  (** well-framed junk and raw byte soup *)
  | Cache_corrupt
      (** concurrent cache-directory writers plus corrupted segments *)
  | Overload  (** a burst past [max_inflight]: fast sheds, honest hints *)

type outcome = {
  o_class : klass;
  index : int;  (** position in the campaign, for reproduction *)
  ok : bool;
  detail : string;  (** violated invariant, [""] when ok *)
  wall_ms : float;
}

type summary = {
  seed : int;
  requested : int;  (** injections asked for, after the [quick] cap *)
  total : int;
      (** injections executed: fewer than [requested] when a daemon
          death or an aborted loop stopped the campaign *)
  failed : int;
  daemon_deaths : int;  (** must be 0: the gate *)
  lost_inflight : int;  (** admitted requests lost at drain: must be 0 *)
  sheds : int;  (** [R_overloaded] responses observed *)
  retries : int;  (** supervisor-level transparent retries *)
  respawns : int;  (** workers respawned after loss *)
  by_class : (string * int * int) list;  (** class, injections, failures *)
  failures : outcome list;
  wall_ms : float;
}

val campaign : ?seed:int -> ?count:int -> ?quick:bool -> unit -> summary
(** boot a supervised daemon (2 workers + spare, chaos units enabled,
    1 GiB / 10 s rlimits, 1.2 s wall deadline, [max_inflight = 4],
    shared cache directory) and run [count] (default 340) injections,
    then a drain-under-load finale.  [quick] caps the campaign at 60
    injections and trims the slowest classes — the CI smoke shape. *)

val gates_ok : summary -> bool
(** the service-tier acceptance gate: every requested injection ran,
    zero failed injections, zero daemon deaths, zero lost in-flight
    requests *)

val pp_summary : Format.formatter -> summary -> unit

val summary_to_json : summary -> string
(** one JSON object: the counts, per-class table, failed injections,
    and the host context (hostname, cores, OCaml version) the campaign
    ran under *)
