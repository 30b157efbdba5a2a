(** A hand-rolled OCaml 5 domain work pool, one per process.

    The worker domains are spawned on first demand and then live as long
    as the process: between calls they park on a condition variable, and
    each {!run} wakes as many as it needs.  A joined domain's heap is not
    handed back to the system, so spawning fresh domains on every call
    grew a long-lived process (a daemon worker) with every check;
    domains that outlive one call reuse their heaps instead.

    Inside a call, tasks live in an array and workers claim contiguous
    chunks with a single [Atomic.fetch_and_add] on a shared cursor.
    Claiming is wait-free — no mutex, no per-task wakeup — so with one
    worker the pool degrades to a plain [for] loop plus one atomic add
    per chunk.  Determinism is the *caller's* job — tasks write their
    results into pre-assigned slots, so the order in which domains
    happen to execute them never shows in the output.

    {2 Callers}

    One call owns the parked domains at a time.  A call that finds them
    taken — a second thread, or a task that itself calls {!run} — runs
    its tasks inline on its own domain, so neither can deadlock.

    {2 Failure containment}

    A task that raises does not bring the pool down: the first exception
    is remembered (atomically) and re-raised from {!run} after every
    worker has finished, so no work unit is silently dropped mid-queue.

    A *worker* whose claim loop dies — an exception escaping the loop
    itself rather than a task (in practice only the test kill hook, or a
    runtime failure like [Stack_overflow] outside the per-task guard) —
    ends its part in that call only: the crash is recorded in its
    stats, the surviving workers keep draining the cursor, and once all
    have finished the coordinating domain re-claims every task the dead
    loop had claimed but not completed.  The domain itself goes back to
    its park.  Per-task completion flags are what make the orphans
    identifiable; they are plain [bool]s because each slot has a single
    writer and the reader only looks after the finish handshake's
    happens-before edge. *)

type worker_stats = {
  tasks_done : int;  (** work units this domain executed *)
  wall_ms : float;
      (** wall-clock time this domain spent in the call — derived from
          the same single [Mcobs] clock measurement that backs the
          domain's [mcd.worker] span *)
  crashed : bool;
      (** the claim loop died (not a mere task exception); any tasks it
          had claimed were re-run by the coordinator *)
}

exception Killed of string
(** what the test kill hook raises — deliberately *outside* the
    per-task guard, so it models a dying worker, not a failing task *)

(* Test-only: the fault-injection harness installs a predicate and a
   worker about to start the matching task dies instead.  Installed
   before [run], cleared after. *)
let kill_hook : (worker:int -> task:int -> bool) option ref = ref None

let set_test_kill h = kill_hook := h
let m_crashed = Mcobs.counter "mcd.pool.worker_crashed"
let m_reclaimed = Mcobs.counter "mcd.pool.reclaimed"
let m_spawned =
  Mcobs.counter "mcheck_pool_domains_spawned_total"
    ~help:"worker domains the process's pool spawned (each once)"

(* ------------------------------------------------------------------ *)
(* The parked domains                                                  *)
(* ------------------------------------------------------------------ *)

(* Parked domain [k] (1-based: the caller is worker 0) waits for
   [generation] to move; it then takes part iff [k < wanted], runs
   [job k], and counts itself out of [pending].  Every field below is
   read and written under [mu]. *)
let mu = Mutex.create ()
let wake = Condition.create ()
let finished = Condition.create ()
let generation = ref 0
let job : (int -> unit) ref = ref ignore
let wanted = ref 0
let pending = ref 0
let spawned = ref 0

(* held by the one call that owns the parked domains *)
let owner = Mutex.create ()

let rec park k seen =
  Mutex.lock mu;
  while !generation = seen do
    Condition.wait wake mu
  done;
  let g = !generation in
  let work = if k < !wanted then Some !job else None in
  Mutex.unlock mu;
  Option.iter
    (fun f ->
      (* [f] contains its own failures; a domain never leaves its park *)
      (try f k with _ -> ());
      Mutex.lock mu;
      decr pending;
      if !pending = 0 then Condition.signal finished;
      Mutex.unlock mu)
    work;
  park k g

(* grow the pool to [n] workers, the caller included; a failed spawn
   leaves it smaller.  Returns the worker count available. *)
let ensure n =
  (try
     while !spawned < n - 1 do
       let k = !spawned + 1 in
       let seen = Mutex.protect mu (fun () -> !generation) in
       ignore (Domain.spawn (fun () -> park k seen) : unit Domain.t);
       spawned := k;
       Mcobs.inc m_spawned
     done
   with _ -> ());
  min n (!spawned + 1)

(* run [body] on workers [0 .. n - 1]: the caller is worker 0, parked
   domains [1 .. n - 1] the rest; returns once every one has finished *)
let dispatch n body =
  Mutex.protect mu (fun () ->
      job := body;
      wanted := n;
      pending := n - 1;
      incr generation;
      Condition.broadcast wake);
  Fun.protect
    (fun () -> body 0)
    ~finally:(fun () ->
      Mutex.protect mu (fun () ->
          while !pending > 0 do
            Condition.wait finished mu
          done;
          (* the pool must not keep this call's tasks alive *)
          job := ignore))

(** Execute every task of [tasks] exactly once across [domains] workers
    (clamped to at least 1), passing each task the index of the worker
    running it.  Workers claim [chunk] consecutive tasks at a time
    (default 1); a larger chunk amortises the shared cursor when tasks
    are small and plentiful.  Returns per-worker statistics, in worker
    order.  Re-raises the first task exception once every worker has
    finished (and after re-claiming crashed workers' tasks, so the
    result slots are complete either way).

    Each worker's time in the call is measured exactly once (with the
    [Mcobs] clock): the measurement is recorded as an [mcd.worker] span —
    the per-domain timeline in the Chrome trace — before the worker
    reports done, and the same numbers back the returned
    {!worker_stats}, so the two can never disagree. *)
let run ?(chunk = 1) ?phase ~domains (tasks : (int -> unit) array) :
    worker_stats array =
  let domains = max 1 domains in
  let chunk = max 1 chunk in
  let n = Array.length tasks in
  let next = Atomic.make 0 in
  let failure : exn option Atomic.t = Atomic.make None in
  let completed = Array.make n false in
  let span_args count =
    ("tasks", string_of_int count)
    :: (match phase with Some p -> [ ("phase", p) ] | None -> [])
  in
  let run_task ~worker i =
    (try tasks.(i) worker with
    | exn -> ignore (Atomic.compare_and_set failure None (Some exn)));
    completed.(i) <- true
  in
  let worker wid =
    let t0 = Mcobs.now_us () in
    let count = ref 0 in
    let crashed = ref false in
    (try
       let rec loop () =
         let start = Atomic.fetch_and_add next chunk in
         if start < n then begin
           let stop = min n (start + chunk) in
           for i = start to stop - 1 do
             (match !kill_hook with
             | Some k when k ~worker:wid ~task:i ->
               raise (Killed (Printf.sprintf "worker %d at task %d" wid i))
             | _ -> ());
             run_task ~worker:wid i;
             incr count
           done;
           loop ()
         end
       in
       loop ()
     with _ ->
       crashed := true;
       Mcobs.inc m_crashed);
    let dur = Mcobs.now_us () -. t0 in
    Mcobs.record_span ~name:"mcd.worker" ~args:(span_args !count)
      ~begin_us:t0 ~dur_us:dur ();
    { tasks_done = !count; wall_ms = dur /. 1000.; crashed = !crashed }
  in
  let stats =
    if domains = 1 || not (Mutex.try_lock owner) then
      (* one worker, or the parked domains are busy with another call:
         a plain sequential loop on this domain *)
      [| worker 0 |]
    else
      Fun.protect
        ~finally:(fun () -> Mutex.unlock owner)
        (fun () ->
          let workers = ensure domains in
          (* a worker that never reports counts as crashed; its
             claimed tasks are re-run below *)
          let stats =
            Array.make workers { tasks_done = 0; wall_ms = 0.; crashed = true }
          in
          dispatch workers (fun wid -> stats.(wid) <- worker wid);
          stats)
  in
  (* re-claim: any task a dead worker claimed but never ran, run here as
     worker 0 — this is worker 0's domain and every loop has ended.  The
     kill hook is not consulted here, so the sweep always terminates. *)
  let orphans = ref 0 in
  Array.iteri
    (fun i done_ ->
      if not done_ then begin
        incr orphans;
        run_task ~worker:0 i
      end)
    completed;
  if !orphans > 0 then Mcobs.inc ~by:!orphans m_reclaimed;
  (match Atomic.get failure with Some exn -> raise exn | None -> ());
  stats

(** [f] on every item, on at most [domains] workers and never more
    workers than items. *)
let iter ?phase ~domains f items =
  let tasks = Array.of_list (List.map (fun x _ -> f x) items) in
  ignore (run ?phase ~domains:(min domains (Array.length tasks)) tasks)
