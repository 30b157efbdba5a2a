(** The process's OCaml 5 domain work pool: worker domains spawned on
    first demand park between calls, and an [Atomic] chunk cursor hands
    out the task array of each call.

    Result determinism is the caller's job: tasks should write into
    pre-assigned slots so domain scheduling never shows in the output.

    Failure containment: a task exception is remembered and re-raised
    once every worker has finished; a *worker* death (an exception
    escaping the claim loop itself) ends that worker's part in the call
    only — it is recorded in that worker's stats and every task it had
    claimed but not completed is re-run by the calling domain before
    {!run} returns, so result slots are always complete. *)

type worker_stats = {
  tasks_done : int;  (** work units this domain executed *)
  wall_ms : float;
      (** wall-clock time this domain spent in the call — a derived view
          over the single [Mcobs] measurement that also produces the
          domain's [mcd.worker] span *)
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
  ?chunk:int ->
  ?phase:string ->
  domains:int ->
  (int -> unit) array ->
  worker_stats array
(** Execute every task exactly once across [domains] workers (clamped to
    at least 1; the calling domain is worker 0, so [~domains:1] is a
    plain sequential loop and spawns nothing).  The other workers are
    the process's parked domains, spawned the first time a call needs
    them (counted by [mcheck_pool_domains_spawned_total]) and kept for
    later calls.  A call that finds them owned by another call — a second
    thread, or a task calling [run] — runs inline as one worker.

    Each task gets the index of the worker running it; a worker index
    names one domain for the whole call, and orphaned tasks re-run as
    worker 0 after every worker has finished, so per-worker state
    indexed by it is never touched by two domains at once.  Workers claim
    [chunk] consecutive tasks per cursor bump (default 1, clamped to at
    least 1); larger chunks amortise contention when tasks are small.
    Each worker records one [mcd.worker] span (with a [phase] argument
    when given) before it reports done, so a {!Mcobs.snapshot} after
    [run] returns sees it.  Per-worker statistics come back in worker
    order, one per worker that took part.  The first exception a task
    raises is re-raised after every worker has finished and orphaned
    tasks have been re-claimed. *)

val iter : ?phase:string -> domains:int -> ('a -> unit) -> 'a list -> unit
(** {!run} with one task per item, on at most [domains] workers and
    never more workers than items *)
