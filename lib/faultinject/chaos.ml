(* Service-tier chaos: a real supervised daemon under attack.  See the
   interface for the invariants.  Everything here goes over the same
   wire a production client uses; the only privileged access is
   [Server.supervisor], which the worker-kill class uses to pick a
   busy victim pid. *)

module Server = Serve.Server
module Client = Serve.Client
module Proto = Serve.Proto

type klass =
  | Worker_kill
  | Worker_oom
  | Worker_stack
  | Worker_spin
  | Worker_death
  | Slowloris
  | Garbage_frames
  | Cache_corrupt
  | Overload

let klass_name = function
  | Worker_kill -> "worker_kill"
  | Worker_oom -> "worker_oom"
  | Worker_stack -> "worker_stack"
  | Worker_spin -> "worker_spin"
  | Worker_death -> "worker_death"
  | Slowloris -> "slowloris"
  | Garbage_frames -> "garbage_frames"
  | Cache_corrupt -> "cache_corrupt"
  | Overload -> "overload"

let all_classes =
  [
    Worker_kill; Worker_oom; Worker_stack; Worker_spin; Worker_death;
    Slowloris; Garbage_frames; Cache_corrupt; Overload;
  ]

type outcome = {
  o_class : klass;
  index : int;
  ok : bool;
  detail : string;
  wall_ms : float;
}

type summary = {
  seed : int;
  requested : int;
  total : int;
  failed : int;
  daemon_deaths : int;
  lost_inflight : int;
  sheds : int;
  retries : int;
  respawns : int;
  by_class : (string * int * int) list;
  failures : outcome list;
  wall_ms : float;
}

(* ------------------------------------------------------------------ *)
(* The daemon under attack                                             *)
(* ------------------------------------------------------------------ *)

(* known-verdict sources: the buggy handler yields findings (so the
   byte-identity check compares non-empty diagnostics), the clean one
   none *)
let buggy_src =
  "void H(void) { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA; \
   NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); }"

let clean_src =
  "void H2(void) { HANDLER_GLOBALS(header.nh.len) = LEN_WORD; \
   NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); }"

type env = {
  srv : Server.t;
  thread : Thread.t;
  addr : Proto.addr;
  cache_dir : string;
  local : Mcheck_api.Session.t;  (* the CLI mirror *)
}

let next_id = Atomic.make 0

let temp_path prefix =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ())
       (Atomic.fetch_and_add next_id 1))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with _ -> ())
  | _ -> ( try Sys.remove path with _ -> ())
  | exception _ -> ()

let boot () =
  let cache_dir = temp_path "mchaos-cache" in
  (try Unix.mkdir cache_dir 0o755 with _ -> ());
  let addr = Proto.Unix_sock (temp_path "mchaos" ^ ".sock") in
  let cfg =
    {
      Server.default_config with
      Server.addr;
      idle_timeout = 2.0;
      max_inflight = 4;
      supervise =
        {
          Server.sv_workers = 2;
          sv_mem_mb = Some 1024;
          sv_cpu_s = Some 10;
          sv_wall_ms = Some 1200.;
          sv_cache_dir = Some cache_dir;
          sv_allow_chaos = true;
        };
    }
  in
  match Server.create cfg with
  | Error msg -> failwith ("chaos: daemon did not start: " ^ msg)
  | Ok srv ->
    let thread = Thread.create Server.run srv in
    let rec wait n =
      if n = 0 then failwith "chaos: daemon did not answer pings";
      match Client.connect addr with
      | Error _ ->
        Thread.delay 0.05;
        wait (n - 1)
      | Ok c -> (
        let r = Client.ping c in
        Client.close c;
        match r with
        | Ok () -> ()
        | Error _ ->
          Thread.delay 0.05;
          wait (n - 1))
    in
    wait 100;
    {
      srv;
      thread;
      addr;
      cache_dir;
      local = Mcheck_api.Session.create ~config:Mcheck_api.default_config ();
    }

let shutdown env =
  (match Client.connect env.addr with
  | Ok c ->
    ignore (Client.drain c);
    Client.close c
  | Error _ -> Server.initiate_drain env.srv);
  Thread.join env.thread;
  Mcheck_api.Session.close env.local;
  rm_rf env.cache_dir

(* ------------------------------------------------------------------ *)
(* Invariant checks                                                    *)
(* ------------------------------------------------------------------ *)

let ropts =
  { Mcheck_api.ro_explain = false; ro_verbose = false; ro_quiet = false }

let mirror env ~name ~contents =
  let r = Mcheck_api.Session.check_buffer env.local ~name ~contents in
  ( String.concat ""
      (List.map (Mcheck_api.render_diag ropts) (Mcheck_api.report_diags r)),
    r.Mcheck_api.r_findings,
    Robust.exit_code r.Mcheck_api.r_outcome )

let with_conn env f =
  match Client.connect ~connect_timeout:5. ~read_timeout:30. env.addr with
  | Error e -> Error e
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let remote_check env ~name ~contents =
  with_conn env (fun c ->
      Client.check_buffer c Proto.default_opts ~name ~contents)

(* the core invariant: an answered check is byte-identical to the
   local CLI pipeline — supervision must be invisible *)
let check_identical env ~name ~contents =
  let l_text, l_findings, l_exit = mirror env ~name ~contents in
  match remote_check env ~name ~contents with
  | Error e -> Error ("transport: " ^ Client.err_to_string e)
  | Ok (Client.Refused msg) -> Error ("refused: " ^ msg)
  | Ok (Client.Overloaded ms) ->
    Error (Printf.sprintf "unexpected shed (retry after %dms)" ms)
  | Ok (Client.Checked r) ->
    let r_text =
      String.concat ""
        (List.map (fun d -> d.Proto.d_text) r.Client.cr_diags)
    in
    if not (String.equal r_text l_text) then
      Error
        (Printf.sprintf "diagnostics differ (%d vs %d bytes)"
           (String.length r_text) (String.length l_text))
    else if r.Client.cr_findings <> l_findings then
      Error
        (Printf.sprintf "findings %d on the wire, %d locally"
           r.Client.cr_findings l_findings)
    else if r.Client.cr_exit <> l_exit then
      Error
        (Printf.sprintf "exit %d on the wire, %d locally" r.Client.cr_exit
           l_exit)
    else Ok ()

(* a chaos unit must be contained as a structured refusal (its worker
   died or its fault was caught), never a hang, never a daemon death *)
let expect_refusal env ~name =
  match remote_check env ~name ~contents:clean_src with
  | Ok (Client.Refused _) -> Ok ()
  | Ok (Client.Checked _) -> Error "chaos unit completed a check"
  | Ok (Client.Overloaded ms) ->
    Error (Printf.sprintf "unexpected shed (retry after %dms)" ms)
  | Error e -> Error ("transport: " ^ Client.err_to_string e)

let daemon_alive env =
  match with_conn env Client.ping with Ok () -> true | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Injection classes                                                   *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* kill a busy worker mid-request: the sleep unit stretches the check
   so the victim is reliably in flight; the supervisor must retry on a
   fresh worker and the client must see one identical answer *)
let inject_kill env i =
  let name = Printf.sprintf "__chaos_sleep_300__k%d.c" (i land 7) in
  let result = ref (Error "no result") in
  let th =
    Thread.create
      (fun () -> result := check_identical env ~name ~contents:buggy_src)
      ()
  in
  Thread.delay 0.08;
  (let pool = Server.supervisor env.srv in
   match Mcsup.busy_pids pool with
   | pid :: _ -> ignore (Mcsup.kill_pid pool pid)
   | [] -> ());
  Thread.join th;
  !result

let inject_unit_fault env kind =
  let* () = expect_refusal env ~name:kind in
  (* and the pool has recovered: the next ordinary check is identical *)
  check_identical env ~name:"after_fault.c" ~contents:buggy_src

let inject_death env i =
  let name = if i land 1 = 0 then "__chaos_exit__" else "__chaos_kill__" in
  let* () = expect_refusal env ~name in
  check_identical env ~name:"after_death.c" ~contents:buggy_src

(* a stalled client holding a half-written frame header must not
   starve the daemon: a well-behaved check on another connection
   completes, identically, while the slow one hangs *)
let inject_slowloris env =
  let path =
    match env.addr with
    | Proto.Unix_sock p -> p
    | Proto.Tcp _ -> failwith "chaos: unix socket expected"
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      ignore (Unix.write_substring fd (Proto.magic ^ "\x00") 0 5);
      check_identical env ~name:"during_loris.c" ~contents:buggy_src)

let inject_garbage env rng =
  let path =
    match env.addr with
    | Proto.Unix_sock p -> p
    | Proto.Tcp _ -> failwith "chaos: unix socket expected"
  in
  (* a well-framed payload that decodes to no request: must be
     answered with R_error on the same connection *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let framed =
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_UNIX path);
        Proto.write_frame fd "\xff\xfe\xfd\xfc";
        match Proto.read_frame fd with
        | Ok payload -> (
          match Proto.decode_response payload with
          | Ok (Proto.R_error _) -> Ok ()
          | Ok _ -> Error "garbage frame answered with a non-error"
          | Error e -> Error ("garbage frame reply undecodable: " ^ e))
        | Error e -> Error ("no reply to garbage frame: " ^ e))
  in
  let* () = framed in
  (* raw byte soup, sometimes behind valid magic: the connection may
     just be dropped, but the daemon survives *)
  let fd2 = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd2 (Unix.ADDR_UNIX path);
     let len = 1 + Random.State.int rng 48 in
     let junk =
       String.init len (fun _ -> Char.chr (Random.State.int rng 256))
     in
     let payload =
       if Random.State.bool rng then Proto.magic ^ junk else junk
     in
     ignore (Unix.write_substring fd2 payload 0 (String.length payload))
   with _ -> ());
  (try Unix.close fd2 with _ -> ());
  if daemon_alive env then Ok () else Error "daemon dead after byte soup"

(* concurrent writers racing into the shared cache directory, with
   corrupt segments planted among them: every publish succeeds or
   skips, a load sees only valid segments, and a worker respawned
   against the corrupted directory still answers identically *)
let inject_cache_corrupt env rng i =
  let writer k () =
    let cfg =
      {
        Mcheck_api.default_config with
        Mcheck_api.incremental = true;
        cache_dir = Some env.cache_dir;
      }
    in
    let s = Mcheck_api.Session.create ~config:cfg () in
    ignore
      (Mcheck_api.Session.check_buffer s
         ~name:(Printf.sprintf "w%d_%d.c" k (i land 15))
         ~contents:(if k land 1 = 0 then buggy_src else clean_src));
    Mcheck_api.Session.close s
  in
  let threads = List.init 3 (fun k -> Thread.create (writer k) ()) in
  (* plant corruption while the writers run *)
  let plant name bytes =
    let path = Filename.concat env.cache_dir name in
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc
  in
  plant
    (Printf.sprintf "seg-%08x.mc" (Random.State.int rng 0xFFFFFF))
    (String.init 40 (fun _ -> Char.chr (Random.State.int rng 256)));
  plant
    (Printf.sprintf "seg-%08x.mc" (Random.State.int rng 0xFFFFFF))
    "MCDCACH1truncated";
  List.iter Thread.join threads;
  (* a cold load over the corrupted directory must not raise *)
  (match Mcd_cache.load_dir env.cache_dir with
  | (_ : Mcd_cache.t) -> ()
  | exception exn ->
    failwith ("load_dir raised: " ^ Printexc.to_string exn));
  (* force a respawn against the corrupted directory, then prove the
     fresh worker still answers byte-identically *)
  let* () = expect_refusal env ~name:"__chaos_exit__" in
  check_identical env ~name:"after_corrupt.c" ~contents:buggy_src

(* a burst past max_inflight: sheds must be fast, honest (Retry-After
   within the daemon's clamp), and strictly before any diagnostic
   byte; a retrying client must eventually land *)
let inject_overload env i sheds =
  let name = Printf.sprintf "__chaos_sleep_150__ov%d.c" (i land 3) in
  let l_text, l_findings, l_exit = mirror env ~name ~contents:buggy_src in
  let n = 16 in
  let errors = ref [] in
  let mu = Mutex.create () in
  let fail msg =
    Mutex.lock mu;
    errors := msg :: !errors;
    Mutex.unlock mu
  in
  let identical (r : Client.check_result) =
    let text =
      String.concat "" (List.map (fun d -> d.Proto.d_text) r.Client.cr_diags)
    in
    String.equal text l_text
    && r.Client.cr_findings = l_findings
    && r.Client.cr_exit = l_exit
  in
  let plain_worker _ =
    match remote_check env ~name ~contents:buggy_src with
    | Ok (Client.Checked r) ->
      if not (identical r) then fail "admitted burst check not identical"
    | Ok (Client.Overloaded ms) ->
      Atomic.incr sheds;
      if ms < 1 || ms > 60_000 then
        fail (Printf.sprintf "retry-after hint out of range: %dms" ms)
    | Ok (Client.Refused msg) -> fail ("burst refused: " ^ msg)
    | Error e -> fail ("burst transport: " ^ Client.err_to_string e)
  in
  let retry_worker _ =
    let r =
      Client.with_retry ~attempts:10 ~base_backoff_ms:30
        ~classify:(function
          | Client.Overloaded ms -> Some ms
          | _ -> None)
        env.addr
        (fun c ->
          Client.check_buffer c Proto.default_opts ~name ~contents:buggy_src)
    in
    match r with
    | Ok (Client.Checked r) ->
      if not (identical r) then fail "retried check not identical"
    | Ok (Client.Overloaded _) -> fail "with_retry never admitted"
    | Ok (Client.Refused msg) -> fail ("retried check refused: " ^ msg)
    | Error e -> fail ("retry transport: " ^ Client.err_to_string e)
  in
  let threads =
    List.init n (fun k ->
        Thread.create (if k < 2 then retry_worker else plain_worker) k)
  in
  List.iter Thread.join threads;
  match !errors with [] -> Ok () | msg :: _ -> Error msg

(* ------------------------------------------------------------------ *)
(* The drain finale                                                    *)
(* ------------------------------------------------------------------ *)

(* a drain fired into live traffic: every request either completes
   (identically) or is explicitly refused/shed — an admitted request
   that vanishes is a lost in-flight, the second hard gate *)
let drain_finale env =
  let name = "__chaos_sleep_200__drain.c" in
  let l_text, l_findings, l_exit = mirror env ~name ~contents:buggy_src in
  let n = 8 in
  let completed = Atomic.make 0
  and refused = Atomic.make 0
  and lost = Atomic.make 0
  and mismatched = Atomic.make 0 in
  let worker _ =
    match Client.connect ~connect_timeout:5. ~read_timeout:30. env.addr with
    | Error { Client.e_kind = Client.E_refused; _ } ->
      (* the listener closed before we connected: an explicit refusal,
         nothing admitted, nothing lost *)
      Atomic.incr refused
    | Error _ -> Atomic.incr lost
    | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match
            Client.check_buffer c Proto.default_opts ~name
              ~contents:buggy_src
          with
          | Ok (Client.Checked r) ->
            let text =
              String.concat ""
                (List.map (fun d -> d.Proto.d_text) r.Client.cr_diags)
            in
            if
              String.equal text l_text
              && r.Client.cr_findings = l_findings
              && r.Client.cr_exit = l_exit
            then Atomic.incr completed
            else Atomic.incr mismatched
          | Ok (Client.Refused _) | Ok (Client.Overloaded _) ->
            Atomic.incr refused
          | Error _ -> Atomic.incr lost)
  in
  let threads = List.init n (fun k -> Thread.create worker k) in
  Thread.delay 0.05;
  Server.initiate_drain env.srv;
  List.iter Thread.join threads;
  Thread.join env.thread;
  ( Atomic.get completed,
    Atomic.get refused,
    Atomic.get lost + Atomic.get mismatched )

(* ------------------------------------------------------------------ *)
(* The campaign                                                        *)
(* ------------------------------------------------------------------ *)

(* weights tuned so a full campaign keeps the expensive classes (spin
   burns the whole wall deadline twice) rare but present *)
let mix ~quick =
  [
    (Worker_kill, 20);
    (Worker_oom, 15);
    (Worker_stack, 15);
    (Worker_spin, (if quick then 2 else 4));
    (Worker_death, 12);
    (Slowloris, 8);
    (Garbage_frames, 12);
    (Cache_corrupt, 6);
    (Overload, 8);
  ]

let pick_class rng ~quick =
  let m = mix ~quick in
  let total = List.fold_left (fun a (_, w) -> a + w) 0 m in
  let r = Random.State.int rng total in
  let rec go acc = function
    | [] -> Worker_kill
    | (k, w) :: rest -> if r < acc + w then k else go (acc + w) rest
  in
  go 0 m

let campaign ?(seed = 0xC4A0) ?(count = 340) ?(quick = false) () : summary =
  let count = if quick then min count 60 else count in
  let t0 = Unix.gettimeofday () in
  let rng = Random.State.make [| seed |] in
  Client.breaker_reset ();
  let retries0 =
    Mcobs.counter_value (Mcobs.counter "mcsup_retries_total")
  and respawns0 =
    Mcobs.counter_value (Mcobs.counter "mcsup_respawns_total")
  in
  let env = boot () in
  let sheds = Atomic.make 0 in
  let outcomes = ref [] in
  let daemon_deaths = ref 0 in
  (try
     for i = 0 to count - 1 do
       if !daemon_deaths = 0 then begin
         let k = pick_class rng ~quick in
         let it0 = Unix.gettimeofday () in
         let r =
           try
             match k with
             | Worker_kill -> inject_kill env i
             | Worker_oom -> inject_unit_fault env "__chaos_oom__"
             | Worker_stack -> inject_unit_fault env "__chaos_stack__"
             | Worker_spin -> inject_unit_fault env "__chaos_spin__"
             | Worker_death -> inject_death env i
             | Slowloris -> inject_slowloris env
             | Garbage_frames -> inject_garbage env rng
             | Cache_corrupt -> inject_cache_corrupt env rng i
             | Overload -> inject_overload env i sheds
           with exn -> Error ("raised: " ^ Printexc.to_string exn)
         in
         let r =
           match r with
           | Error _ when not (daemon_alive env) ->
             incr daemon_deaths;
             Error "daemon died"
           | r -> r
         in
         let o =
           {
             o_class = k;
             index = i;
             ok = Result.is_ok r;
             detail = (match r with Ok () -> "" | Error d -> d);
             wall_ms = (Unix.gettimeofday () -. it0) *. 1000.;
           }
         in
         outcomes := o :: !outcomes;
         if not o.ok then
           Mcobs.logf Mcobs.Verbose "chaos: #%d %s: %s\n" i (klass_name k)
             o.detail
       end
     done
   with exn ->
     Mcobs.logf Mcobs.Normal "chaos: campaign aborted: %s\n"
       (Printexc.to_string exn));
  let _completed, _refused, lost_inflight =
    if !daemon_deaths = 0 then drain_finale env
    else begin
      (try shutdown env with _ -> ());
      (0, 0, 0)
    end
  in
  if !daemon_deaths = 0 then begin
    Mcheck_api.Session.close env.local;
    rm_rf env.cache_dir
  end;
  let outcomes = List.rev !outcomes in
  let failures = List.filter (fun o -> not o.ok) outcomes in
  let by_class =
    List.filter_map
      (fun k ->
        let inj = List.filter (fun o -> o.o_class = k) outcomes in
        if inj = [] then None
        else
          Some
            ( klass_name k,
              List.length inj,
              List.length (List.filter (fun o -> not o.ok) inj) ))
      all_classes
  in
  {
    seed;
    requested = count;
    total = List.length outcomes;
    failed = List.length failures;
    daemon_deaths = !daemon_deaths;
    lost_inflight;
    sheds = Atomic.get sheds;
    retries =
      Mcobs.counter_value (Mcobs.counter "mcsup_retries_total")
      - retries0;
    respawns =
      Mcobs.counter_value
        (Mcobs.counter "mcsup_respawns_total")
      - respawns0;
    by_class;
    failures;
    wall_ms = (Unix.gettimeofday () -. t0) *. 1000.;
  }

let gates_ok s =
  s.total = s.requested && s.failed = 0 && s.daemon_deaths = 0
  && s.lost_inflight = 0

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_summary ppf (s : summary) =
  Format.fprintf ppf
    "chaos campaign: seed %#x, %d of %d injection(s), %d failure(s), %d \
     daemon death(s), %d lost in-flight, %d shed(s), %d retry(ies), %d \
     respawn(s), %.1fs@."
    s.seed s.total s.requested s.failed s.daemon_deaths s.lost_inflight s.sheds
    s.retries s.respawns (s.wall_ms /. 1000.);
  List.iter
    (fun (name, n, bad) ->
      Format.fprintf ppf "  %-16s %4d injected  %d failed@." name n bad)
    s.by_class;
  List.iter
    (fun o ->
      Format.fprintf ppf "  FAIL #%d %s: %s@." o.index (klass_name o.o_class)
        o.detail)
    s.failures

let summary_to_json (s : summary) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" s.seed);
  Buffer.add_string b (Printf.sprintf "  \"requested\": %d,\n" s.requested);
  Buffer.add_string b (Printf.sprintf "  \"injections\": %d,\n" s.total);
  Buffer.add_string b (Printf.sprintf "  \"failures\": %d,\n" s.failed);
  Buffer.add_string b
    (Printf.sprintf "  \"daemon_deaths\": %d,\n" s.daemon_deaths);
  Buffer.add_string b
    (Printf.sprintf "  \"lost_inflight\": %d,\n" s.lost_inflight);
  Buffer.add_string b (Printf.sprintf "  \"sheds\": %d,\n" s.sheds);
  Buffer.add_string b (Printf.sprintf "  \"retries\": %d,\n" s.retries);
  Buffer.add_string b (Printf.sprintf "  \"respawns\": %d,\n" s.respawns);
  Buffer.add_string b
    (Printf.sprintf "  \"gates_ok\": %b,\n" (gates_ok s));
  Buffer.add_string b (Printf.sprintf "  \"wall_ms\": %.1f,\n" s.wall_ms);
  Buffer.add_string b "  \"host\": {\n";
  Buffer.add_string b
    (Printf.sprintf "    \"hostname\": %S,\n" (Unix.gethostname ()));
  Buffer.add_string b
    (Printf.sprintf "    \"cores\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string b
    (Printf.sprintf "    \"ocaml\": %S,\n" Sys.ocaml_version);
  Buffer.add_string b (Printf.sprintf "    \"os\": %S\n" Sys.os_type);
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"by_class\": {\n";
  List.iteri
    (fun i (name, n, bad) ->
      Buffer.add_string b
        (Printf.sprintf
           "    \"%s\": { \"injected\": %d, \"failed\": %d }%s\n" name n bad
           (if i = List.length s.by_class - 1 then "" else ",")))
    s.by_class;
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"failed_injections\": [";
  List.iteri
    (fun i o ->
      Buffer.add_string b
        (Printf.sprintf
           "%s\n    { \"index\": %d, \"class\": %S, \"detail\": %S }"
           (if i = 0 then "" else ",")
           o.index (klass_name o.o_class) o.detail))
    s.failures;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b
