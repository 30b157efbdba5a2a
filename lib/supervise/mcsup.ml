(* Mcsup — supervised worker-process pool.  See the interface for the
   design.  Implementation notes:

   - OCaml 5 forbids [Unix.fork] once any domain has ever existed (and
     Mcd spawns domains), so workers are spawned with
     [Unix.create_process_env] re-executing [Sys.executable_name] with
     an environment gate; the hosting binary must call its protocol
     module's [exit_if_worker] before doing anything else.

   - The socketpair is the child's fd 0 and is bidirectional; the
     child's stdout is mapped onto stderr so stray prints can never
     corrupt the frame stream.  Both parent-side fds are close-on-exec
     immediately so concurrent spawns cannot leak one worker's channel
     into another (which would defeat EOF-based retirement).

   - Ownership discipline: a busy worker belongs to the dispatching
     thread, and only that thread reaps it and closes its fd.
     [retire_all]/[close] wait for the busy list to drain (sending
     SIGKILL to stragglers but leaving the reap to the owner), then
     retire idle workers and the spare themselves.  This keeps every
     fd close and waitpid single-owner without a per-worker lock. *)

external set_rlimit_as : int -> bool = "mcsup_set_rlimit_as"
external set_rlimit_cpu : int -> bool = "mcsup_set_rlimit_cpu"

let is_worker ~key = Sys.getenv_opt key = Some "1"
let set_mem_limit_mb mb = set_rlimit_as mb
let set_cpu_limit_s s = set_rlimit_cpu s

(* ------------------------------------------------------------------ *)
(* Failure classification                                              *)
(* ------------------------------------------------------------------ *)

type failure =
  | F_deadline
  | F_signal of int
  | F_exit of int
  | F_channel of string
  | F_spawn of string

let failure_class = function
  | F_deadline -> "deadline"
  | F_signal _ -> "signal"
  | F_exit _ -> "exit"
  | F_channel _ -> "channel"
  | F_spawn _ -> "spawn"

(* OCaml signal numbers are its own negative encoding; name the ones a
   worker plausibly dies of *)
let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigxcpu then "SIGXCPU"
  else if s = Sys.sigill then "SIGILL"
  else if s = Sys.sigfpe then "SIGFPE"
  else if s = Sys.sigpipe then "SIGPIPE"
  else Printf.sprintf "signal %d" s

let describe_failure = function
  | F_deadline -> "worker exceeded request deadline"
  | F_signal s -> Printf.sprintf "worker killed by %s" (signal_name s)
  | F_exit n -> Printf.sprintf "worker exited with status %d" n
  | F_channel msg -> Printf.sprintf "worker channel broke: %s" msg
  | F_spawn msg -> Printf.sprintf "no worker available: %s" msg

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type frame_class = More | Final | Garbage

type codec = {
  cd_read : Unix.file_descr -> (string, string) result;
  cd_write : Unix.file_descr -> string -> unit;
  cd_class : string -> frame_class;
  cd_split :
    Bytes.t -> int -> int ->
    [ `Frame of string * int | `Need | `Bad of string ];
}

type config = {
  sp_size : int;
  sp_env_key : string;
  sp_init : string;
  sp_codec : codec;
  sp_wall_ms : float option;
  sp_grace_ms : float;
  sp_spawn_timeout_ms : float;
  sp_name : string;
}

let default_config codec =
  {
    sp_size = 2;
    sp_env_key = "MCSUP_WORKER";
    sp_init = "";
    sp_codec = codec;
    sp_wall_ms = Some 30_000.;
    sp_grace_ms = 500.;
    sp_spawn_timeout_ms = 10_000.;
    sp_name = "mcsup";
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_workers = Mcobs.gauge ~help:"live supervised workers" "mcsup_workers"

let m_spawns =
  Mcobs.counter ~help:"worker processes spawned" "mcsup_spawns_total"

let m_respawns =
  Mcobs.counter ~help:"workers respawned after loss"
    "mcsup_respawns_total"

let m_retries =
  Mcobs.counter ~help:"requests retried on a fresh worker"
    "mcsup_retries_total"

let m_dispatch_ms =
  Mcobs.hist ~help:"supervised dispatch latency" "mcsup_dispatch_ms"

(* every series of the labeled families exists from startup, at zero *)
let m_kill sg =
  Mcobs.counter_labeled ~help:"workers killed by the supervisor"
    "mcsup_kills_total" ~label:("sig", sg)

let m_kill_term = m_kill "term"
let m_kill_kill = m_kill "kill"

let m_failures =
  List.map
    (fun f ->
      let cls = failure_class f in
      ( cls,
        Mcobs.counter_labeled ~help:"worker failures by class"
          "mcsup_worker_failures_total" ~label:("class", cls) ))
    [ F_deadline; F_signal 0; F_exit 0; F_channel ""; F_spawn "" ]

let m_failure f = List.assoc (failure_class f) m_failures

(* ------------------------------------------------------------------ *)
(* Pool state                                                          *)
(* ------------------------------------------------------------------ *)

type worker = { w_pid : int; w_fd : Unix.file_descr }

type t = {
  cfg : config;
  mu : Mutex.t;
  cond : Condition.t;
  mutable idle : worker list;
  mutable busy : worker list;
  mutable spare : worker option;
  mutable pending : int;  (* background spawns in flight *)
  mutable gen : int;  (* bumped by retire_all; stale spawns are discarded *)
  mutable closed : bool;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let alive_locked t =
  List.length t.idle + List.length t.busy
  + (match t.spare with Some _ -> 1 | None -> 0)

let sync_gauge_locked t = Mcobs.set m_workers (alive_locked t)
let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Spawning                                                            *)
(* ------------------------------------------------------------------ *)

(* Spawn one worker and complete its init handshake.  Touches no pool
   state; the caller places the worker under the lock. *)
let spawn_worker t =
  match Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error ("socketpair: " ^ Unix.error_message e)
  | sup_fd, wrk_fd -> (
    let env =
      Array.append (Unix.environment ()) [| t.cfg.sp_env_key ^ "=1" |]
    in
    let exe = Sys.executable_name in
    match Unix.create_process_env exe [| exe |] env wrk_fd Unix.stderr
            Unix.stderr
    with
    | exception e ->
      (try Unix.close sup_fd with _ -> ());
      (try Unix.close wrk_fd with _ -> ());
      Error ("spawn: " ^ Printexc.to_string e)
    | pid -> (
      (try Unix.close wrk_fd with _ -> ());
      Mcobs.inc m_spawns;
      let fail msg =
        (try Unix.kill pid Sys.sigkill with _ -> ());
        (try ignore (Unix.waitpid [] pid) with _ -> ());
        (try Unix.close sup_fd with _ -> ());
        Error msg
      in
      try
        Unix.setsockopt_float sup_fd Unix.SO_RCVTIMEO
          (t.cfg.sp_spawn_timeout_ms /. 1000.);
        t.cfg.sp_codec.cd_write sup_fd t.cfg.sp_init;
        match t.cfg.sp_codec.cd_read sup_fd with
        | Ok _ready ->
          Unix.setsockopt_float sup_fd Unix.SO_RCVTIMEO 0.;
          Ok { w_pid = pid; w_fd = sup_fd }
        | Error e -> fail ("worker init: " ^ e)
      with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        fail "worker init: timeout"
      | e -> fail ("worker init: " ^ Printexc.to_string e)))

(* Keep live + pending at the full complement; call under the lock.
   Completed spawns land as the spare first (warm template), overflow
   into idle. *)
let rec replenish_locked t =
  let target = t.cfg.sp_size + 1 in
  if (not t.closed) && alive_locked t + t.pending < target then begin
    t.pending <- t.pending + 1;
    let gen = t.gen in
    ignore
      (Thread.create
         (fun () ->
           let r = spawn_worker t in
           locked t (fun () ->
               t.pending <- t.pending - 1;
               (match r with
               | Ok w ->
                 if t.closed || t.gen <> gen then begin
                   (* pool moved on while we were spawning *)
                   (try Unix.kill w.w_pid Sys.sigkill with _ -> ());
                   (try ignore (Unix.waitpid [] w.w_pid) with _ -> ());
                   try Unix.close w.w_fd with _ -> ()
                 end
                 else begin
                   Mcobs.inc m_respawns;
                   (match t.spare with
                   | None -> t.spare <- Some w
                   | Some _ -> t.idle <- w :: t.idle);
                   replenish_locked t
                 end
               | Error msg ->
                 if not t.closed then
                   Mcobs.logf Mcobs.Normal "%s: worker spawn failed: %s\n"
                     t.cfg.sp_name msg);
               sync_gauge_locked t;
               Condition.broadcast t.cond))
         ())
  end

(* ------------------------------------------------------------------ *)
(* Reaping                                                             *)
(* ------------------------------------------------------------------ *)

(* Wait for [pid] to exit, polling WNOHANG, escalating to SIGKILL after
   the grace period.  [term_first] sends SIGTERM up front (deadline and
   channel failures); graceful retirement closes the fd instead and
   lets EOF do the asking. *)
let reap t ?(term_first = false) pid =
  if term_first then begin
    (try Unix.kill pid Sys.sigterm with _ -> ());
    Mcobs.inc m_kill_term
  end;
  let deadline = now () +. (t.cfg.sp_grace_ms /. 1000.) in
  let rec poll killed =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if (not killed) && now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with _ -> ());
        Mcobs.inc m_kill_kill;
        poll true
      end
      else begin
        Thread.delay 0.01;
        poll killed
      end
    | _, st -> st
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      (* someone else reaped it (close racing a dispatch failure) *)
      Unix.WEXITED 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll killed
  in
  poll false

let classify ~trigger st =
  match trigger with
  | `Deadline -> F_deadline
  | `Channel msg -> (
    match st with
    | Unix.WSIGNALED s -> F_signal s
    | Unix.WEXITED n when n <> 0 -> F_exit n
    | _ -> F_channel msg)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* [queue] counts callers waiting for a free worker: up when a caller
   first has to wait, down when it is handed a worker (or given up) *)
let take ~queue t =
  locked t (fun () ->
      let waited = ref false in
      let rec go () =
        if t.closed then Error "pool closed"
        else begin
          replenish_locked t;
          match t.idle with
          | w :: rest ->
            t.idle <- rest;
            t.busy <- w :: t.busy;
            Ok w
          | [] -> (
            match t.spare with
            | Some w ->
              t.spare <- None;
              t.busy <- w :: t.busy;
              replenish_locked t;
              Ok w
            | None ->
              if alive_locked t = 0 && t.pending = 0 then
                Error "no live workers"
              else begin
                if not !waited then begin
                  waited := true;
                  Mcobs.add queue 1
                end;
                Condition.wait t.cond t.mu;
                go ()
              end)
        end
      in
      Fun.protect go ~finally:(fun () ->
          if !waited then Mcobs.add queue (-1)))

let release t w =
  locked t (fun () ->
      t.busy <- List.filter (fun x -> x.w_pid <> w.w_pid) t.busy;
      t.idle <- w :: t.idle;
      Condition.broadcast t.cond)

(* The worker failed us: kill with escalation, classify, drop it from
   the busy list, and trigger a respawn. *)
let destroy t w ~trigger =
  let st = reap t ~term_first:true w.w_pid in
  (try Unix.close w.w_fd with _ -> ());
  let f = classify ~trigger st in
  Mcobs.inc (m_failure f);
  locked t (fun () ->
      t.busy <- List.filter (fun x -> x.w_pid <> w.w_pid) t.busy;
      replenish_locked t;
      sync_gauge_locked t;
      Condition.broadcast t.cond);
  f

type reply = { rp_frames : string list; rp_pid : int; rp_attempt : int }

let attempt ~queue t ~n payload =
  match take ~queue t with
  | Error msg -> Error (F_spawn msg)
  | Ok w -> (
    let t0 = now () in
    let remaining () =
      match t.cfg.sp_wall_ms with
      | None -> Some None
      | Some wall ->
        let r = (wall /. 1000.) -. (now () -. t0) in
        if r <= 0. then None else Some (Some r)
    in
    let fail trigger = Error (destroy t w ~trigger) in
    match t.cfg.sp_codec.cd_write w.w_fd payload with
    | exception Unix.Unix_error (e, _, _) ->
      fail (`Channel ("write: " ^ Unix.error_message e))
    | exception e -> fail (`Channel ("write: " ^ Printexc.to_string e))
    | () ->
      let finish acc frame =
        (try Unix.setsockopt_float w.w_fd Unix.SO_RCVTIMEO 0. with _ -> ());
        release t w;
        Mcobs.observe m_dispatch_ms ((now () -. t0) *. 1000.);
        Ok
          {
            rp_frames = List.rev (frame :: acc);
            rp_pid = w.w_pid;
            rp_attempt = n;
          }
      in
      (* Drain the reply as bursts: one bulk [read] per wakeup, then
         split every whole frame already in the window.  A diag-heavy
         response costs a handful of syscalls instead of two per
         frame. *)
      let split = t.cfg.sp_codec.cd_split in
      let data = ref (Bytes.create 65536) in
      let start = ref 0 and avail = ref 0 in
      let rec go acc =
        match split !data !start !avail with
        | `Bad msg -> fail (`Channel msg)
        | `Frame (frame, used) -> (
          start := !start + used;
          avail := !avail - used;
          match t.cfg.sp_codec.cd_class frame with
          | More -> go (frame :: acc)
          | Final -> finish acc frame
          | Garbage -> fail (`Channel "garbage frame from worker"))
        | `Need -> (
          match remaining () with
          | None -> fail `Deadline
          | Some r -> (
            if !start > 0 then begin
              Bytes.blit !data !start !data 0 !avail;
              start := 0
            end;
            if !avail = Bytes.length !data then begin
              let d = Bytes.create (2 * Bytes.length !data) in
              Bytes.blit !data 0 d 0 !avail;
              data := d
            end;
            (try
               Unix.setsockopt_float w.w_fd Unix.SO_RCVTIMEO
                 (Option.value r ~default:0.)
             with _ -> ());
            match
              Unix.read w.w_fd !data (!start + !avail)
                (Bytes.length !data - !start - !avail)
            with
            | 0 -> fail (`Channel "eof")
            | n ->
              avail := !avail + n;
              go acc
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              fail `Deadline
            | exception Unix.Unix_error (e, _, _) ->
              fail (`Channel (Unix.error_message e))
            | exception e -> fail (`Channel (Printexc.to_string e))))
      in
      go [])

let dispatch ~queue t payload =
  match attempt ~queue t ~n:1 payload with
  | Ok r -> Ok r
  | Error (F_spawn _ as f) -> Error f
  | Error _first ->
    (* the request's frames were never forwarded, so a retry on a fresh
       worker is invisible to the caller *)
    Mcobs.inc m_retries;
    attempt ~queue t ~n:2 payload

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create cfg =
  if cfg.sp_size < 1 then Error "sp_size must be >= 1"
  else begin
    let t =
      {
        cfg;
        mu = Mutex.create ();
        cond = Condition.create ();
        idle = [];
        busy = [];
        spare = None;
        pending = 0;
        gen = 0;
        closed = false;
      }
    in
    let rec up n =
      if n = 0 then Ok ()
      else
        match spawn_worker t with
        | Error msg -> Error msg
        | Ok w ->
          (match t.spare with
          | None -> t.spare <- Some w
          | Some _ -> t.idle <- w :: t.idle);
          up (n - 1)
    in
    match up (cfg.sp_size + 1) with
    | Ok () ->
      locked t (fun () -> sync_gauge_locked t);
      Ok t
    | Error msg ->
      List.iter
        (fun w ->
          (try Unix.kill w.w_pid Sys.sigkill with _ -> ());
          (try ignore (Unix.waitpid [] w.w_pid) with _ -> ());
          try Unix.close w.w_fd with _ -> ())
        (t.idle @ Option.to_list t.spare);
      Error msg
  end

(* Gracefully retire one worker we own: close its channel (EOF lets it
   publish its cache and exit 0), escalating if it lingers. *)
let retire_worker t w =
  (try Unix.close w.w_fd with _ -> ());
  let deadline = now () +. (t.cfg.sp_grace_ms /. 1000.) in
  let rec poll escalation =
    match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
    | 0, _ ->
      if now () > deadline then
        if escalation = 0 then begin
          (try Unix.kill w.w_pid Sys.sigterm with _ -> ());
          Mcobs.inc m_kill_term;
          poll 1
        end
        else begin
          (try Unix.kill w.w_pid Sys.sigkill with _ -> ());
          Mcobs.inc m_kill_kill;
          ignore (Unix.waitpid [] w.w_pid)
        end
      else begin
        Thread.delay 0.01;
        poll escalation
      end
    | _, _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll escalation
  in
  poll 0

(* Wait (bounded) for the busy list to drain; after [cap] seconds send
   SIGKILL to stragglers — their owning dispatch threads will reap them
   through the normal failure path. *)
let drain_busy_locked t ~cap =
  let deadline = now () +. cap in
  let kicked = ref false in
  while t.busy <> [] do
    if now () > deadline && not !kicked then begin
      kicked := true;
      List.iter
        (fun w -> try Unix.kill w.w_pid Sys.sigkill with _ -> ())
        t.busy
    end;
    Mutex.unlock t.mu;
    Thread.delay 0.02;
    Mutex.lock t.mu
  done

let grab_all_locked t =
  let all = t.idle @ Option.to_list t.spare in
  t.idle <- [];
  t.spare <- None;
  all

let retire_all t =
  let old =
    locked t (fun () ->
        drain_busy_locked t ~cap:60.;
        t.gen <- t.gen + 1;
        grab_all_locked t)
  in
  List.iter (retire_worker t) old;
  let fresh = ref [] in
  for _ = 1 to t.cfg.sp_size + 1 do
    match spawn_worker t with
    | Ok w -> fresh := w :: !fresh
    | Error msg ->
      Mcobs.logf Mcobs.Normal "%s: respawn after retire failed: %s\n"
        t.cfg.sp_name msg
  done;
  locked t (fun () ->
      if t.closed then
        List.iter
          (fun w ->
            (try Unix.kill w.w_pid Sys.sigkill with _ -> ());
            (try ignore (Unix.waitpid [] w.w_pid) with _ -> ());
            try Unix.close w.w_fd with _ -> ())
          !fresh
      else
        List.iter
          (fun w ->
            Mcobs.inc m_respawns;
            match t.spare with
            | None -> t.spare <- Some w
            | Some _ -> t.idle <- w :: t.idle)
          !fresh;
      sync_gauge_locked t;
      Condition.broadcast t.cond)

let close t =
  let old =
    locked t (fun () ->
        if t.closed then []
        else begin
          t.closed <- true;
          t.gen <- t.gen + 1;
          Condition.broadcast t.cond;
          drain_busy_locked t ~cap:5.;
          grab_all_locked t
        end)
  in
  List.iter (retire_worker t) old;
  locked t (fun () ->
      sync_gauge_locked t;
      Condition.broadcast t.cond)

(* ------------------------------------------------------------------ *)
(* Introspection / chaos helpers                                       *)
(* ------------------------------------------------------------------ *)

let alive t = locked t (fun () -> alive_locked t)
let size t = t.cfg.sp_size

let busy_pids t = locked t (fun () -> List.map (fun w -> w.w_pid) t.busy)

let kill_pid t pid =
  let mine =
    locked t (fun () ->
        List.exists
          (fun w -> w.w_pid = pid)
          (t.idle @ t.busy @ Option.to_list t.spare))
  in
  if mine then (
    (try Unix.kill pid Sys.sigkill with _ -> ());
    true)
  else false
