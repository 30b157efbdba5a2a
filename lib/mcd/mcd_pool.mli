(** A hand-rolled OCaml 5 domain work pool: [Domain] + an [Atomic] chunk
    cursor over the task array, no locks, no external dependencies.

    Result determinism is the caller's job: tasks should write into
    pre-assigned slots so domain scheduling never shows in the output.

    Failure containment: a task exception is remembered and re-raised
    after the join; a *worker* death (an exception escaping the claim
    loop itself) is recorded in that worker's stats and every task it
    had claimed but not completed is re-run by the coordinating domain
    before {!run} returns, so result slots are always complete. *)

type worker_stats = {
  tasks_done : int;  (** work units this domain executed *)
  wall_ms : float;
      (** wall-clock time this domain spent alive — a derived view over
          the single [Mcobs] measurement that also produces the domain's
          [mcd.worker] span *)
  crashed : bool;
      (** the claim loop died (not a mere task exception); its orphaned
          tasks were re-claimed by the coordinator *)
}

exception Killed of string
(** what the test kill hook raises, outside the per-task guard — it
    models a dying worker, not a failing task *)

val set_test_kill : (worker:int -> task:int -> bool) option -> unit
(** test-only: a worker about to start the matching task dies instead
    (raises {!Killed} from its claim loop).  [None] clears the hook.
    Install before {!run}, clear after. *)

val run :
  ?chunk:int -> domains:int -> (int -> unit) array -> worker_stats array
(** Execute every task exactly once across [domains] worker domains
    (clamped to at least 1; the calling domain is worker 0, so
    [~domains:1] is a plain sequential loop).  Each task gets the index
    of the worker running it, [0 .. domains - 1]; a worker index names
    one domain for the whole call, and orphaned tasks re-run as worker
    0 after the join, so per-worker state indexed by it is never touched
    by two domains at once.  Workers claim [chunk]
    consecutive tasks per cursor bump (default 1, clamped to at least 1);
    larger chunks amortise contention when tasks are small.  Per-domain
    statistics come back in domain order.  The first exception a task
    raises is re-raised after all domains have joined and orphaned tasks
    have been re-claimed. *)
