(** The serving stack: wire-protocol totality and round-tripping,
    framing safety against hostile bytes, a live daemon whose checks
    run in supervised worker processes (checks, interleaved sessions,
    drain under load, reload, worker kills and overload), daemon ≡ CLI
    byte-identity, the telemetry surface seen through the workers
    (stats formats, live metrics, access log, flight recorder, trace
    propagation, queue depth, span capping), and the dogfood check —
    our own [msg_length] checker run over a Clite model of
    [Serve.Proto]'s framing discipline. *)

let t = Alcotest.test_case

module Proto = Serve.Proto
module Client = Serve.Client
module Oracle = Serve.Serve_oracle

(* ------------------------------------------------------------------ *)
(* Codec round trips (qcheck)                                          *)
(* ------------------------------------------------------------------ *)

let gen_bytes =
  (* adversarial strings: full byte range, NULs included *)
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 60))

let gen_opts =
  QCheck.Gen.(
    map3
      (fun names trace (a, b) ->
        {
          Proto.co_checkers = names;
          co_explain = a;
          co_verbose = b;
          co_quiet = a <> b;
          co_strict = a && b;
          (* arbitrary bytes: the codec must round-trip whatever the
             client put here; sanitisation is the daemon's job *)
          co_trace = trace;
        })
      (list_size (int_bound 3) gen_bytes)
      gen_bytes
      (pair bool bool))

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun o fs -> Proto.Check_files (o, fs))
          gen_opts
          (list_size (int_bound 4) gen_bytes);
        map3
          (fun o n c -> Proto.Check_buffer (o, n, c))
          gen_opts gen_bytes gen_bytes;
        oneofl
          [
            Proto.Stats Proto.S_text;
            Proto.Stats Proto.S_json;
            Proto.Metrics Proto.M_prom;
            Proto.Metrics Proto.M_json;
            Proto.Flight;
          ];
        return Proto.Drain;
        return Proto.Reload;
        return Proto.Ping;
      ])

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun c s txt ->
            Proto.R_diag
              {
                Proto.d_checker = c;
                d_severity = s;
                d_internal = String.length txt land 1 = 1;
                d_text = txt;
              })
          gen_bytes gen_bytes gen_bytes;
        map3
          (fun e f d ->
            Proto.R_done { rd_exit = e; rd_findings = f; rd_diags = d })
          (int_bound 3) small_nat small_nat;
        map (fun s -> Proto.R_text s) gen_bytes;
        map
          (fun ms -> Proto.R_overloaded { ro_retry_after_ms = ms })
          small_nat;
        return Proto.R_ok;
        map (fun s -> Proto.R_error s) gen_bytes;
      ])

let prop_request_roundtrip =
  QCheck.Test.make ~name:"proto: decode (encode req) = Ok req" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" Proto.pp_request) gen_request)
    (fun req ->
      match Proto.decode_request (Proto.encode_request req) with
      | Ok req' -> Proto.equal_request req req'
      | Error _ -> false)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"proto: decode (encode resp) = Ok resp" ~count:300
    (QCheck.make gen_response)
    (fun resp ->
      match Proto.decode_response (Proto.encode_response resp) with
      | Ok resp' -> Proto.equal_response resp resp'
      | Error _ -> false)

let prop_decode_total =
  QCheck.Test.make ~name:"proto: hostile payloads never raise" ~count:500
    (QCheck.make gen_bytes)
    (fun bytes ->
      let total decode =
        match decode bytes with Ok _ | Error _ -> true
      in
      total Proto.decode_request && total Proto.decode_response)

let prop_trailing_garbage_rejected =
  QCheck.Test.make ~name:"proto: trailing garbage is rejected" ~count:100
    (QCheck.make ~print:(Format.asprintf "%a" Proto.pp_request) gen_request)
    (fun req ->
      match Proto.decode_request (Proto.encode_request req ^ "\x00") with
      | Error _ -> true
      | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Framing over a real descriptor                                      *)
(* ------------------------------------------------------------------ *)

let with_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () -> f a b)

let write_all fd s =
  ignore (Unix.write_substring fd s 0 (String.length s))

let framing_cases =
  [
    t "split_frame: prefixes want more, whole frames split exactly" `Quick
      (fun () ->
        let f = Proto.frame "hello" in
        let buf = Bytes.of_string f in
        for len = 0 to String.length f - 1 do
          match Proto.split_frame buf 0 len with
          | `Need -> ()
          | `Frame _ -> Alcotest.failf "prefix %d split a frame" len
          | `Bad msg -> Alcotest.failf "prefix %d rejected: %s" len msg
        done;
        (match Proto.split_frame buf 0 (String.length f) with
        | `Frame (p, used) ->
          Alcotest.(check string) "payload" "hello" p;
          Alcotest.(check int) "consumed" (String.length f) used
        | _ -> Alcotest.fail "whole frame not split");
        (* back-to-back frames parse from the running offset *)
        let both = Bytes.of_string (f ^ Proto.frame "") in
        (match Proto.split_frame both 0 (Bytes.length both) with
        | `Frame (_, used) -> (
          match Proto.split_frame both used (Bytes.length both - used) with
          | `Frame (p2, used2) ->
            Alcotest.(check string) "second payload" "" p2;
            Alcotest.(check int)
              "fully consumed" (Bytes.length both) (used + used2)
          | _ -> Alcotest.fail "second frame not split")
        | _ -> Alcotest.fail "first frame not split");
        match Proto.split_frame (Bytes.make 16 'X') 0 16 with
        | `Bad _ -> ()
        | _ -> Alcotest.fail "bad magic accepted");
    t "frame carries its exact length big-endian" `Quick (fun () ->
        let payload = "hello \x00 frame" in
        let f = Proto.frame payload in
        Alcotest.(check int) "total length"
          (Proto.header_len + String.length payload)
          (String.length f);
        Alcotest.(check string) "magic" Proto.magic (String.sub f 0 4);
        let len =
          (Char.code f.[6] lsl 24)
          lor (Char.code f.[7] lsl 16)
          lor (Char.code f.[8] lsl 8)
          lor Char.code f.[9]
        in
        (* the header's length claim agrees with the payload the peer
           reads — the msg_length discipline, on our own wire *)
        Alcotest.(check int) "length field" (String.length payload) len);
    t "read_frame round-trips a written frame" `Quick (fun () ->
        with_pair (fun a b ->
            Proto.write_frame a "payload";
            match Proto.read_frame b with
            | Ok p -> Alcotest.(check string) "payload" "payload" p
            | Error e -> Alcotest.fail e));
    t "truncated header, truncated payload, eof" `Quick (fun () ->
        with_pair (fun a b ->
            write_all a (String.sub (Proto.frame "full payload") 0 6);
            Unix.close a;
            match Proto.read_frame b with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "truncated header accepted");
        with_pair (fun a b ->
            let f = Proto.frame "twelve bytes" in
            write_all a (String.sub f 0 (String.length f - 3));
            Unix.close a;
            match Proto.read_frame b with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "truncated payload accepted");
        with_pair (fun a b ->
            Unix.close a;
            match Proto.read_frame b with
            | Error "eof" -> ()
            | Error e -> Alcotest.failf "expected eof, got %s" e
            | Ok _ -> Alcotest.fail "eof accepted"));
    t "oversized length claim rejected before allocation" `Quick (fun () ->
        with_pair (fun a b ->
            let h = Bytes.of_string (Proto.frame "") in
            (* rewrite the length field to claim 2 GiB *)
            Bytes.set h 6 '\x7f';
            Bytes.set h 7 '\xff';
            Bytes.set h 8 '\xff';
            Bytes.set h 9 '\xff';
            write_all a (Bytes.to_string h);
            Unix.close a;
            match Proto.read_frame b with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "oversized frame accepted"));
    t "bad magic and bad version rejected" `Quick (fun () ->
        with_pair (fun a b ->
            write_all a ("XXXX" ^ String.make 6 '\x00');
            Unix.close a;
            match Proto.read_frame b with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "bad magic accepted"));
  ]

(* ------------------------------------------------------------------ *)
(* Live daemon                                                         *)
(* ------------------------------------------------------------------ *)

let buggy_src =
  "void H(void) { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA; \
   NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); }"

let with_daemon ?config f =
  let d = Oracle.start ?config () in
  Fun.protect ~finally:(fun () -> try Oracle.stop d with _ -> ()) (fun () ->
      f d)

(* a daemon whose workers honour chaos units only when [allow_chaos]
   asks for them *)
let sup_config ?(allow_chaos = false) ?(max_inflight = 64) ?(wall_ms = 10_000.)
    () =
  {
    Oracle.default_config with
    Serve.Server.idle_timeout = 2.0;
    max_inflight;
    supervise =
      {
        Serve.Server.default_supervise with
        Serve.Server.sv_wall_ms = Some wall_ms;
        sv_allow_chaos = allow_chaos;
      };
  }

let with_client addr f =
  match Client.connect addr with
  | Error e -> Alcotest.fail (Client.err_to_string e)
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let plain = Proto.default_opts

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.equal (String.sub hay i nn) needle then Some i
    else go (i + 1)
  in
  go 0

let contains_sub hay needle = find_sub hay needle <> None

(* enough JSON to read a counter out of the daemon's stats reply
   without dragging in a parser *)
let json_int_field s name =
  match find_sub s (Printf.sprintf "\"%s\":" name) with
  | None -> None
  | Some i ->
    let j = ref (i + String.length name + 3) in
    let start = !j in
    while
      !j < String.length s
      && (match s.[!j] with '0' .. '9' -> true | _ -> false)
    do
      incr j
    done;
    if !j = start then None
    else int_of_string_opt (String.sub s start (!j - start))

(* a bare prometheus sample line: [name value] *)
let prom_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match find_sub line (name ^ " ") with
         | Some 0 ->
           float_of_string_opt
             (String.sub line
                (String.length name + 1)
                (String.length line - String.length name - 1))
         | _ -> None)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* the daemon's own scrape of one bare series *)
let scrape_value c name =
  match Client.metrics c Proto.M_prom with
  | Error e -> Alcotest.fail (Client.err_to_string e)
  | Ok m -> (
    match prom_value m name with
    | Some v -> v
    | None -> Alcotest.failf "%s sample missing" name)

let expect_checked = function
  | Ok (Client.Checked r) -> r
  | Ok (Client.Refused msg) -> Alcotest.failf "refused: %s" msg
  | Ok (Client.Overloaded ms) -> Alcotest.failf "overloaded: %dms" ms
  | Error e -> Alcotest.fail (Client.err_to_string e)

let daemon_cases =
  [
    t "ping, buffer check, stats over the wire" `Quick (fun () ->
        with_daemon (fun d ->
            with_client (Oracle.addr d) (fun c ->
                (match Client.ping c with
                | Ok () -> ()
                | Error e -> Alcotest.fail (Client.err_to_string e));
                let r =
                  expect_checked
                    (Client.check_buffer c plain ~name:"b.c"
                       ~contents:buggy_src)
                in
                Alcotest.(check int) "findings exit" 1 r.Client.cr_exit;
                Alcotest.(check bool) "findings counted" true
                  (r.Client.cr_findings > 0);
                Alcotest.(check int) "stream complete"
                  (List.length r.Client.cr_diags)
                  r.Client.cr_findings;
                match Client.stats c with
                | Ok s ->
                  Alcotest.(check bool) "stats mention requests" true
                    (String.length s > 0)
                | Error e -> Alcotest.fail (Client.err_to_string e))));
    t "daemon output byte-identical to the CLI path" `Quick (fun () ->
        (* corpus files on disk, like the real CLI differential in CI *)
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "serve-ident-%d" (Unix.getpid ()))
        in
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        Corpus.write_to_dir (Corpus.generate ()) dir;
        let files =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".c")
          |> List.sort compare
          |> List.map (Filename.concat dir)
        in
        let files = [ List.nth files 0; List.nth files 1 ] in
        let ropts =
          {
            Mcheck_api.ro_explain = false;
            ro_verbose = false;
            ro_quiet = false;
          }
        in
        let local_out, local_exit =
          let s = Mcheck_api.Session.create () in
          Fun.protect
            ~finally:(fun () -> Mcheck_api.Session.close s)
            (fun () ->
              let r = Mcheck_api.Session.check_files s files in
              let diags =
                String.concat ""
                  (List.map
                     (Mcheck_api.render_diag ropts)
                     (Mcheck_api.report_diags r))
              in
              ( (if r.Mcheck_api.r_findings = 0 then
                   diags ^ "no violations found\n"
                 else diags),
                Robust.exit_code r.Mcheck_api.r_outcome ))
        in
        with_daemon (fun d ->
            with_client (Oracle.addr d) (fun c ->
                let buf = Buffer.create 4096 in
                let r =
                  expect_checked
                    (Client.check_files
                       ~on_diag:(fun df ->
                         Buffer.add_string buf df.Proto.d_text)
                       c plain files)
                in
                if r.Client.cr_findings = 0 then
                  Buffer.add_string buf "no violations found\n";
                Alcotest.(check string)
                  "stdout bytes" local_out (Buffer.contents buf);
                Alcotest.(check int) "exit code" local_exit r.Client.cr_exit)));
    t "interleaved client sessions multiplex cleanly" `Quick (fun () ->
        with_daemon (fun d ->
            with_client (Oracle.addr d) (fun c1 ->
                with_client (Oracle.addr d) (fun c2 ->
                    let check c =
                      (expect_checked
                         (Client.check_buffer c plain ~name:"b.c"
                            ~contents:buggy_src))
                        .Client.cr_exit
                    in
                    Alcotest.(check (list int))
                      "alternating requests"
                      [ 1; 1; 1; 1 ]
                      [ check c1; check c2; check c1; check c2 ]))));
    t "draining daemon refuses new checks explicitly" `Quick (fun () ->
        let d = Oracle.start () in
        with_client (Oracle.addr d) (fun c ->
            (match Client.drain c with
            | Ok () -> ()
            | Error e -> Alcotest.fail (Client.err_to_string e));
            match
              Client.check_buffer c plain ~name:"b.c" ~contents:buggy_src
            with
            | Ok (Client.Refused _) | Ok (Client.Overloaded _) -> ()
            | Ok (Client.Checked _) ->
              Alcotest.fail "check accepted during drain"
            | Error _ ->
              (* the daemon may already have hung up: also an explicit
                 refusal, not a lost admitted response *)
              ()));
    t "protocol garbage answered, daemon survives" `Quick (fun () ->
        with_daemon (fun d ->
            let path =
              match Oracle.addr d with
              | Proto.Unix_sock p -> p
              | Proto.Tcp _ -> Alcotest.fail "expected unix socket"
            in
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX path);
            (* a well-framed payload that is not a valid request *)
            Proto.write_frame fd "\xff\xfe\xfd";
            (match Proto.read_frame fd with
            | Ok payload -> (
              match Proto.decode_response payload with
              | Ok (Proto.R_error _) -> ()
              | _ -> Alcotest.fail "expected an error frame")
            | Error e -> Alcotest.failf "no reply to garbage: %s" e);
            Unix.close fd;
            (* raw garbage bytes on a second connection *)
            let fd2 = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd2 (Unix.ADDR_UNIX path);
            write_all fd2 "GET / HTTP/1.1\r\n\r\n";
            (try Unix.close fd2 with _ -> ());
            (* the daemon is still serving *)
            with_client (Oracle.addr d) (fun c ->
                match Client.ping c with
                | Ok () -> ()
                | Error e -> Alcotest.fail (Client.err_to_string e))));
    t "reload swaps the session without dropping service" `Quick (fun () ->
        with_daemon (fun d ->
            with_client (Oracle.addr d) (fun c ->
                let before =
                  expect_checked
                    (Client.check_buffer c plain ~name:"b.c"
                       ~contents:buggy_src)
                in
                (match Client.reload c with
                | Ok () -> ()
                | Error e -> Alcotest.fail (Client.err_to_string e));
                let after =
                  expect_checked
                    (Client.check_buffer c plain ~name:"b.c"
                       ~contents:buggy_src)
                in
                Alcotest.(check int)
                  "same verdict across reload" before.Client.cr_exit
                  after.Client.cr_exit)));
    t "fuzzed byte streams never kill the daemon" `Quick (fun () ->
        with_daemon (fun d ->
            let path =
              match Oracle.addr d with
              | Proto.Unix_sock p -> p
              | Proto.Tcp _ -> Alcotest.fail "expected unix socket"
            in
            let rng = Random.State.make [| 0xF4A3 |] in
            for _ = 1 to 20 do
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_UNIX path);
              let len = Random.State.int rng 64 in
              let junk =
                String.init len (fun _ -> Char.chr (Random.State.int rng 256))
              in
              (* half the streams lead with valid magic to get past the
                 header check *)
              let payload =
                if Random.State.bool rng then Proto.magic ^ junk else junk
              in
              (try write_all fd payload with _ -> ());
              (try Unix.close fd with _ -> ())
            done;
            with_client (Oracle.addr d) (fun c ->
                match Client.ping c with
                | Ok () -> ()
                | Error e -> Alcotest.fail (Client.err_to_string e))));
    t "serve oracle: daemon = CLI on generated programs" `Quick (fun () ->
        with_daemon (fun d ->
            List.iter
              (fun seed ->
                let p = Fuzz_gen.generate ~seed () in
                match Oracle.check d p with
                | [] -> ()
                | f :: _ ->
                  Alcotest.failf "seed %d: %s" seed f.Fuzz_oracle.f_detail)
              [ 1; 2; 3 ]));
  ]

(* ------------------------------------------------------------------ *)
(* Supervised dispatch: worker pool, retry, overload, drain            *)
(* ------------------------------------------------------------------ *)

let retries_now () =
  Mcobs.counter_value (Mcobs.counter "mcsup_retries_total")

let supervised_cases =
  [
    t "worker killed mid-request: one transparent retry, same answer" `Quick
      (fun () ->
        with_daemon ~config:(sup_config ~allow_chaos:true ()) (fun d ->
            let addr = Oracle.addr d in
            let retries0 = retries_now () in
            let result = ref None in
            let th =
              Thread.create
                (fun () ->
                  with_client addr (fun c ->
                      result :=
                        Some
                          (Client.check_buffer c plain
                             ~name:"__chaos_sleep_500__b.c"
                             ~contents:buggy_src)))
                ()
            in
            let pool = Serve.Server.supervisor (Oracle.server d) in
            let rec busy n =
              if n = 0 then Alcotest.fail "no busy worker to kill"
              else
                match Mcsup.busy_pids pool with
                | pid :: _ -> pid
                | [] ->
                  Thread.delay 0.05;
                  busy (n - 1)
            in
            ignore (Mcsup.kill_pid pool (busy 40));
            Thread.join th;
            (match !result with
            | Some (Ok (Client.Checked r)) ->
              Alcotest.(check int) "same verdict after the kill" 1
                r.Client.cr_exit
            | Some (Ok (Client.Refused msg)) -> Alcotest.failf "refused: %s" msg
            | Some (Ok (Client.Overloaded ms)) ->
              Alcotest.failf "overloaded: %dms" ms
            | Some (Error e) -> Alcotest.fail (Client.err_to_string e)
            | None -> Alcotest.fail "no result");
            Alcotest.(check bool) "a transparent retry happened" true
              (retries_now () > retries0)));
    t "queue full: R_overloaded with nothing partial written" `Quick
      (fun () ->
        with_daemon ~config:(sup_config ~allow_chaos:true ~max_inflight:1 ())
          (fun d ->
            let addr = Oracle.addr d in
            let blocker =
              Thread.create
                (fun () ->
                  with_client addr (fun c ->
                      ignore
                        (Client.check_buffer c plain
                           ~name:"__chaos_sleep_600__b.c" ~contents:buggy_src)))
                ()
            in
            Thread.delay 0.15;
            let shed = ref 0 in
            for _ = 1 to 4 do
              with_client addr (fun c ->
                  let frames = ref 0 in
                  match
                    Client.check_buffer
                      ~on_diag:(fun _ -> incr frames)
                      c plain ~name:"b.c" ~contents:buggy_src
                  with
                  | Ok (Client.Overloaded ms) ->
                    incr shed;
                    Alcotest.(check bool) "positive retry-after" true (ms > 0);
                    Alcotest.(check int) "no partial frames" 0 !frames
                  | Ok (Client.Checked _) -> ()
                  | Ok (Client.Refused msg) -> Alcotest.failf "refused: %s" msg
                  | Error e -> Alcotest.fail (Client.err_to_string e))
            done;
            Thread.join blocker;
            Alcotest.(check bool) "at least one request shed" true (!shed > 0)));
    t "worker death answered with a structured error, daemon survives" `Quick
      (fun () ->
        with_daemon ~config:(sup_config ~allow_chaos:true ()) (fun d ->
            let addr = Oracle.addr d in
            with_client addr (fun c ->
                match
                  Client.check_buffer c plain ~name:"__chaos_exit__"
                    ~contents:"int x;"
                with
                | Ok (Client.Refused msg) ->
                  Alcotest.(check bool) "names the worker failure" true
                    (contains_sub msg "worker")
                | Ok _ -> Alcotest.fail "expected a structured refusal"
                | Error e -> Alcotest.fail (Client.err_to_string e));
            with_client addr (fun c ->
                let r =
                  expect_checked
                    (Client.check_buffer c plain ~name:"b.c"
                       ~contents:buggy_src)
                in
                Alcotest.(check int) "daemon recovered on a fresh worker" 1
                  r.Client.cr_exit)));
    t "drain under load: zero admitted responses lost" `Quick (fun () ->
        with_daemon (fun d ->
            let addr = Oracle.addr d in
            let n = 6 in
            let completed = Atomic.make 0
            and refused = Atomic.make 0
            and lost = Atomic.make 0 in
            let worker _ =
              match Client.connect addr with
              | Error _ -> Atomic.incr lost
              | Ok c ->
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    match
                      Client.check_buffer c plain ~name:"b.c"
                        ~contents:buggy_src
                    with
                    | Ok (Client.Checked _) -> Atomic.incr completed
                    | Ok (Client.Refused _) | Ok (Client.Overloaded _) ->
                      Atomic.incr refused
                    | Error _ -> Atomic.incr lost)
            in
            let threads = List.init n (fun i -> Thread.create worker i) in
            Thread.delay 0.05;
            Serve.Server.initiate_drain (Oracle.server d);
            List.iter Thread.join threads;
            Alcotest.(check int) "lost" 0 (Atomic.get lost);
            Alcotest.(check int)
              "every request accounted" n
              (Atomic.get completed + Atomic.get refused)));
    t "queue depth counts a request waiting for a free worker" `Quick
      (fun () ->
        with_daemon ~config:(sup_config ~allow_chaos:true ()) (fun d ->
            let addr = Oracle.addr d in
            let pool = Serve.Server.supervisor (Oracle.server d) in
            (* every worker, the hot spare included *)
            let slots = Mcsup.size pool + 1 in
            let check name () =
              with_client addr (fun c ->
                  ignore
                    (expect_checked
                       (Client.check_buffer c plain ~name ~contents:buggy_src)))
            in
            let holders =
              List.init slots (fun i ->
                  Thread.create
                    (check (Printf.sprintf "__chaos_sleep_3000__h%d.c" i))
                    ())
            in
            let rec until n what ok =
              if n = 0 then Alcotest.failf "timed out waiting for %s" what
              else if not (ok ()) then begin
                Thread.delay 0.02;
                until (n - 1) what ok
              end
            in
            until 100 "every worker busy" (fun () ->
                List.length (Mcsup.busy_pids pool) = slots);
            let waiter = Thread.create (check "b.c") () in
            with_client addr (fun c ->
                until 100 "mcheckd_queue_depth 1" (fun () ->
                    scrape_value c "mcheckd_queue_depth" = 1.0));
            List.iter Thread.join (waiter :: holders);
            with_client addr (fun c ->
                Alcotest.(check (float 0.)) "queue drained" 0.
                  (scrape_value c "mcheckd_queue_depth"))));
    t "a request with more spans than a trailer carries still gets its answer"
      `Quick (fun () ->
        (* one mcd.unit span per function: this buffer's spans overflow
           one trailer, which keeps the longest and counts the rest *)
        let n = Serve.Worker.max_trailer_spans + 200 in
        let contents =
          String.concat "\n"
            (List.init n (fun i ->
                 Printf.sprintf "void f%d(int x) { if (x) { x = x + 1; } }" i))
        in
        let local =
          Mcheck_api.report_diags
            (Mcheck_api.Session.check_buffer
               (Mcheck_api.Session.create ~config:Oracle.default_config.api ())
               ~name:"many.c" ~contents)
        in
        with_daemon (fun d ->
            with_client (Oracle.addr d) (fun c ->
                let trace = Mctel.Trace.mint () in
                let r =
                  expect_checked
                    (Client.check_buffer c
                       { plain with Proto.co_trace = trace }
                       ~name:"many.c" ~contents)
                in
                Alcotest.(check int) "every diagnostic forwarded"
                  (List.length local)
                  (List.length r.Client.cr_diags);
                let fr = Serve.Server.flight_recorder (Oracle.server d) in
                match
                  List.find_opt
                    (fun e -> String.equal e.Mctel.Flight.fl_trace trace)
                    (Mctel.Flight.entries fr)
                with
                | None -> Alcotest.fail "no flight entry for the trace"
                | Some e ->
                  let spans = e.Mctel.Flight.fl_spans in
                  let has name =
                    List.exists (fun sp -> sp.Mcobs.sp_name = name) spans
                  in
                  Alcotest.(check bool) "the span tree's top survives" true
                    (has "api.check_buffer" && has "mcd.schedule");
                  Alcotest.(check bool) "the spans are capped" true
                    (List.length spans <= Serve.Worker.max_trailer_spans + 2);
                  Alcotest.(check bool) "the dispatch hop counts the drop" true
                    (List.exists
                       (fun sp ->
                         sp.Mcobs.sp_name = "serve.dispatch"
                         && List.mem_assoc "spans_dropped" sp.Mcobs.sp_args)
                       spans))));
    t "client errors: a refused connection is not a timeout" `Quick (fun () ->
        (match
           Client.connect (Proto.Unix_sock "/tmp/mcsup-no-such-daemon.sock")
         with
        | Error { Client.e_kind = Client.E_refused; _ } -> ()
        | Error e ->
          Alcotest.failf "expected refused: %s" (Client.err_to_string e)
        | Ok _ -> Alcotest.fail "connected to nothing");
        (* a listener that accepts but never answers: the read deadline
           must classify as timeout, not refusal *)
        let path =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "mcsup-mute-%d.sock" (Unix.getpid ()))
        in
        (try Unix.unlink path with _ -> ());
        let l = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind l (Unix.ADDR_UNIX path);
        Unix.listen l 1;
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close l with _ -> ());
            try Unix.unlink path with _ -> ())
          (fun () ->
            match Client.connect ~read_timeout:0.2 (Proto.Unix_sock path) with
            | Ok c ->
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  match Client.ping c with
                  | Error { Client.e_kind = Client.E_timeout; _ } -> ()
                  | Error e ->
                    Alcotest.failf "expected timeout: %s"
                      (Client.err_to_string e)
                  | Ok () -> Alcotest.fail "mute daemon answered")
            | Error e ->
              Alcotest.failf "connect to mute listener: %s"
                (Client.err_to_string e)));
    t "circuit breaker: opens, fast-fails, half-open probe re-opens" `Quick
      (fun () ->
        Client.breaker_reset ();
        Client.set_breaker ~threshold:2 ~cooldown_ms:200 ();
        let dead = Proto.Unix_sock "/tmp/mcsup-dead-daemon.sock" in
        Fun.protect
          ~finally:(fun () ->
            Client.set_breaker ~threshold:5 ~cooldown_ms:2000 ();
            Client.breaker_reset ())
          (fun () ->
            Alcotest.(check bool)
              "starts closed" true
              (Client.breaker_state dead = `Closed);
            let attempt () =
              Client.with_retry ~attempts:1 ~base_backoff_ms:1 dead Client.ping
            in
            ignore (attempt ());
            ignore (attempt ());
            Alcotest.(check bool)
              "open after threshold" true
              (Client.breaker_state dead = `Open);
            (match attempt () with
            | Error { Client.e_kind = Client.E_refused; e_msg } ->
              Alcotest.(check bool) "fast-fail names the breaker" true
                (contains_sub e_msg "circuit open")
            | Error e ->
              Alcotest.failf "expected fast-fail: %s" (Client.err_to_string e)
            | Ok () -> Alcotest.fail "dead daemon answered");
            Thread.delay 0.25;
            (* cooldown elapsed: the half-open probe runs, fails against
               the still-dead endpoint, and re-opens the breaker *)
            (match attempt () with
            | Error _ -> ()
            | Ok () -> Alcotest.fail "dead daemon answered the probe");
            Alcotest.(check bool)
              "probe failure re-opens" true
              (Client.breaker_state dead = `Open)));
  ]

(* ------------------------------------------------------------------ *)
(* Telemetry: stats formats, metrics, access log, flight recorder      *)
(* ------------------------------------------------------------------ *)

(* the Prometheus families a fresh daemon exposes: a rename, a new
   family or a changed type shows up as a diff of this list.  (The
   daemon under test shares this process's registry: the other suites'
   own metrics have dotted names, which the exposition leaves out.) *)
let metric_families =
  [
    "mcheck_check_ms histogram";
    "mcheck_client_breaker_open gauge";
    "mcheck_client_breaker_opens_total counter";
    "mcheck_client_retries_total counter";
    "mcheck_client_timeouts_total counter";
    "mcheck_findings_total counter";
    "mcheck_memo_hits_total counter";
    "mcheck_memo_probes_total counter";
    "mcheck_session_requests_total counter";
    "mcheck_unit_cache_hits_total counter";
    "mcheck_unit_cache_probes_total counter";
    "mcheck_units_faulted_total counter";
    "mcheck_units_run_total counter";
    "mcheckd_bytes_in_total counter";
    "mcheckd_bytes_out_total counter";
    "mcheckd_client_aborts_total counter";
    "mcheckd_connections gauge";
    "mcheckd_draining gauge";
    "mcheckd_faults_total counter";
    "mcheckd_flight_notable_total counter";
    "mcheckd_inflight gauge";
    "mcheckd_protocol_errors_total counter";
    "mcheckd_queue_depth gauge";
    "mcheckd_refused_total counter";
    "mcheckd_request_ms histogram";
    "mcheckd_requests_total counter";
    "mcheckd_shed_total counter";
    "mcsup_dispatch_ms histogram";
    "mcsup_kills_total counter";
    "mcsup_respawns_total counter";
    "mcsup_retries_total counter";
    "mcsup_spawns_total counter";
    "mcsup_worker_failures_total counter";
    "mcsup_workers gauge";
  ]

(* the session block of a [--stats] JSON reply (its field names repeat
   the top level's) *)
let session_block j =
  match find_sub j "\"session\":" with
  | Some i -> String.sub j i (String.length j - i)
  | None -> Alcotest.fail "no session block"

let telemetry_cases =
  [
    t "a fresh daemon exposes the pinned metric families" `Quick (fun () ->
        with_daemon (fun d ->
            with_client (Oracle.addr d) (fun c ->
                let m =
                  match Client.metrics c Proto.M_prom with
                  | Ok m -> m
                  | Error e -> Alcotest.fail (Client.err_to_string e)
                in
                let lines = String.split_on_char '\n' m in
                let families =
                  List.filter_map
                    (fun l ->
                      if String.starts_with ~prefix:"# TYPE " l then
                        Some (String.sub l 7 (String.length l - 7))
                      else None)
                    lines
                  |> List.sort String.compare
                in
                Alcotest.(check (list string))
                  "families and types" metric_families families;
                (* registered up front: every family already has a
                   sample, before any check request *)
                List.iter
                  (fun fam ->
                    let name = List.hd (String.split_on_char ' ' fam) in
                    Alcotest.(check bool) (name ^ " has a sample") true
                      (List.exists
                         (fun l ->
                           String.starts_with ~prefix:name l
                           && not (String.starts_with ~prefix:"#" l))
                         lines))
                  families)));
    t "stats and metrics agree on every session field" `Quick (fun () ->
        (* two handlers: editing G's body leaves H's unit cached *)
        let src g =
          buggy_src ^ "\nvoid G(void) { int x; x = " ^ g ^ "; }\n"
        in
        with_daemon (fun d ->
            with_client (Oracle.addr d) (fun c ->
                let check contents =
                  ignore
                    (expect_checked
                       (Client.check_buffer c plain ~name:"v.c" ~contents))
                in
                let stats () =
                  match Client.stats_json c with
                  | Ok j -> session_block j
                  | Error e -> Alcotest.fail (Client.err_to_string e)
                in
                let field j name =
                  match json_int_field j name with
                  | Some n -> n
                  | None -> Alcotest.failf "no session %s field" name
                in
                check (src "1");
                let hits0 = field (stats ()) "cache_hits" in
                let memo0 = scrape_value c "mcheck_memo_hits_total" in
                (* the same buffer again: the worker's memo answers *)
                check (src "1");
                Alcotest.(check (float 0.)) "the memo hit" (memo0 +. 1.)
                  (scrape_value c "mcheck_memo_hits_total");
                Alcotest.(check int) "a memo hit is no unit-cache hit" hits0
                  (field (stats ()) "cache_hits");
                (* an edit: the unchanged function's unit hits *)
                check (src "2");
                let j = stats () in
                Alcotest.(check bool) "the re-check hit the unit cache" true
                  (field j "cache_hits" > hits0);
                List.iter
                  (fun (key, series) ->
                    Alcotest.(check int) (key ^ " = " ^ series)
                      (int_of_float (scrape_value c series))
                      (field j key))
                  [
                    ("requests", "mcheck_session_requests_total");
                    ("findings", "mcheck_findings_total");
                    ("units_run", "mcheck_units_run_total");
                    ("cache_hits", "mcheck_unit_cache_hits_total");
                  ])));

    t "stats exposition: text and json agree on the counters" `Quick
      (fun () ->
        with_daemon (fun d ->
            with_client (Oracle.addr d) (fun c ->
                let units0 = scrape_value c "mcheck_units_run_total" in
                ignore
                  (expect_checked
                     (Client.check_buffer c plain ~name:"b.c"
                        ~contents:buggy_src));
                (* the worker ran the units; its trailer moved the
                   daemon's counter *)
                Alcotest.(check bool) "mcheck_units_run_total moved" true
                  (scrape_value c "mcheck_units_run_total" > units0);
                (match Client.stats c with
                | Ok s ->
                  Alcotest.(check bool) "text mentions requests" true
                    (contains_sub s "requests")
                | Error e -> Alcotest.fail (Client.err_to_string e));
                match Client.stats_json c with
                | Error e -> Alcotest.fail (Client.err_to_string e)
                | Ok j ->
                  Alcotest.(check bool) "one object" true
                    (String.length j > 2 && j.[0] = '{');
                  Alcotest.(check bool) "nested session block" true
                    (contains_sub j "\"session\":");
                  (match json_int_field j "requests" with
                  | Some n ->
                    Alcotest.(check bool) "served at least one" true (n >= 1)
                  | None -> Alcotest.fail "no requests field");
                  List.iter
                    (fun field ->
                      match json_int_field j field with
                      | Some n ->
                        Alcotest.(check bool) ("session " ^ field ^ " counted")
                          true (n >= 1)
                      | None -> Alcotest.failf "no session %s field" field)
                    [ "findings"; "units_run"; "files_checked" ])));
    t "metrics exposition: required series present and monotone" `Quick
      (fun () ->
        with_daemon (fun d ->
            with_client (Oracle.addr d) (fun c ->
                ignore
                  (expect_checked
                     (Client.check_buffer c plain ~name:"b.c"
                        ~contents:buggy_src));
                let scrape () =
                  match Client.metrics c Proto.M_prom with
                  | Ok m -> m
                  | Error e -> Alcotest.fail (Client.err_to_string e)
                in
                let m1 = scrape () in
                List.iter
                  (fun series ->
                    Alcotest.(check bool) (series ^ " present") true
                      (contains_sub m1 series))
                  [
                    "mcheckd_requests_total";
                    "mcheckd_inflight";
                    "mcheckd_request_ms_bucket";
                    "mcheckd_request_ms_sum";
                    "mcheckd_request_ms_count";
                    "mcheck_unit_cache_probes_total";
                    "mcheck_unit_cache_hits_total";
                  ];
                ignore
                  (expect_checked
                     (Client.check_buffer c plain ~name:"b2.c"
                        ~contents:buggy_src));
                let m2 = scrape () in
                let v text =
                  match prom_value text "mcheckd_requests_total" with
                  | Some f -> f
                  | None -> Alcotest.fail "requests_total sample missing"
                in
                Alcotest.(check bool) "requests counter is monotone" true
                  (v m2 >= v m1 +. 1.0);
                match Client.metrics c Proto.M_json with
                | Error e -> Alcotest.fail (Client.err_to_string e)
                | Ok j ->
                  Alcotest.(check bool) "json carries the latency hist" true
                    (contains_sub j "mcheckd_request_ms");
                  Alcotest.(check bool) "json carries quantiles" true
                    (contains_sub j "\"p50_ms\":"))));
    t "access log: one line per admitted request across a drain" `Quick
      (fun () ->
        let log_path = Filename.temp_file "mcheckd-access" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove log_path with _ -> ())
          (fun () ->
            let telemetry =
              {
                Serve.Server.default_telemetry with
                tel_access_log = Some log_path;
              }
            in
            let d =
              Oracle.start ~config:{ Oracle.default_config with telemetry } ()
            in
            let n = 6 in
            let completed = Atomic.make 0
            and refused = Atomic.make 0
            and lost = Atomic.make 0
            and connected = Atomic.make 0 in
            let worker _ =
              let conn = Client.connect (Oracle.addr d) in
              Atomic.incr connected;
              match conn with
              | Error _ -> Atomic.incr lost
              | Ok c ->
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    match
                      Client.check_buffer c plain ~name:"b.c"
                        ~contents:buggy_src
                    with
                    | Ok (Client.Checked _) -> Atomic.incr completed
                    | Ok (Client.Refused _) | Ok (Client.Overloaded _) ->
                      Atomic.incr refused
                    | Error _ -> Atomic.incr lost)
            in
            let threads = List.init n (fun i -> Thread.create worker i) in
            (* drain once every client holds a connection, however slowly
               the threads were scheduled *)
            while Atomic.get connected < n do
              Thread.delay 0.001
            done;
            Oracle.stop d;
            List.iter Thread.join threads;
            Alcotest.(check int) "lost" 0 (Atomic.get lost);
            (* the daemon has drained: every admitted check wrote exactly
               one line, every refused one a line marked refused *)
            let lines =
              String.split_on_char '\n' (read_file log_path)
              |> List.filter (fun l -> String.trim l <> "")
            in
            let buffer_lines =
              List.filter
                (fun l -> contains_sub l "\"kind\":\"check_buffer\"")
                lines
            in
            let refused_lines =
              List.filter
                (fun l -> contains_sub l "\"outcome\":\"refused\"")
                buffer_lines
            in
            Alcotest.(check int) "one line per admitted request"
              (Atomic.get completed)
              (List.length buffer_lines - List.length refused_lines);
            Alcotest.(check int) "one line per refused request"
              (Atomic.get refused)
              (List.length refused_lines);
            List.iter
              (fun l ->
                Alcotest.(check bool) "line carries a trace id" true
                  (contains_sub l "\"trace\":\"t-"))
              buffer_lines));
    t "access log: reopen after a rename writes to a fresh file" `Quick
      (fun () ->
        let path = Filename.temp_file "mcheckd-access" ".jsonl" in
        let rotated = path ^ ".1" in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun p -> try Sys.remove p with _ -> ())
              [ path; rotated ])
          (fun () ->
            let log = Mctel.Accesslog.create ~path:(Some path) () in
            let entry trace =
              {
                Mctel.Accesslog.al_trace = trace;
                al_peer = "test";
                al_kind = "ping";
                al_bytes_in = 0;
                al_bytes_out = 0;
                al_wall_ms = 0.;
                al_outcome = "ok";
                al_findings = 0;
                al_diags = 0;
                al_cache_hits = 0;
              }
            in
            Alcotest.(check bool) "first logged" true
              (Mctel.Accesslog.log log (entry "first"));
            let t0 = Unix.gettimeofday () in
            while
              Mctel.Accesslog.lines_written log < 1
              && Unix.gettimeofday () -. t0 < 5.
            do
              Thread.delay 0.005
            done;
            Sys.rename path rotated;
            Mctel.Accesslog.reopen log;
            Alcotest.(check bool) "second logged" true
              (Mctel.Accesslog.log log (entry "second"));
            Mctel.Accesslog.close log;
            Alcotest.(check bool) "the rotated file keeps the first line"
              true
              (contains_sub (read_file rotated) "\"trace\":\"first\""
              && not (contains_sub (read_file rotated) "second"));
            Alcotest.(check bool) "the fresh file holds the second line"
              true
              (contains_sub (read_file path) "\"trace\":\"second\""
              && not (contains_sub (read_file path) "first"))));
    t "a fault-barrier trip lands in the flight recorder" `Quick (fun () ->
        (* a one-step unit budget: every unit runs out of fuel in the
           worker, and the check degrades to a partial outcome *)
        let config =
          {
            Oracle.default_config with
            Serve.Server.api =
              {
                Oracle.default_config.Serve.Server.api with
                Mcheck_api.budget =
                  { Engine.no_budget with Engine.fuel = Some 1 };
              };
          }
        in
        with_daemon ~config (fun d ->
            with_client (Oracle.addr d) (fun c ->
                (match
                   Client.check_buffer c plain ~name:"b.c"
                     ~contents:buggy_src
                 with
                | Error e -> Alcotest.fail (Client.err_to_string e)
                | Ok _ -> ());
                (* same-connection fetch: the entry is committed
                   before the daemon reads this request's frame *)
                (match Client.flight c with
                | Error e -> Alcotest.fail (Client.err_to_string e)
                | Ok dump ->
                  Alcotest.(check bool) "dump shows the partial outcome"
                    true
                    (contains_sub dump "\"outcome\":\"partial\""));
                let fr =
                  Serve.Server.flight_recorder (Oracle.server d)
                in
                Alcotest.(check bool) "tail rule retained the fault"
                  true
                  (Mctel.Flight.retained fr >= 1);
                Alcotest.(check bool)
                  "a notable check_buffer entry survives" true
                  (List.exists
                     (fun e ->
                       e.Mctel.Flight.fl_notable
                       && String.equal e.Mctel.Flight.fl_kind
                            "check_buffer"
                       && String.equal e.Mctel.Flight.fl_outcome
                            "partial")
                     (Mctel.Flight.entries fr)))));
    t "a client trace id spans server, session, and scheduler" `Quick
      (fun () ->
        with_daemon (fun d ->
            with_client (Oracle.addr d) (fun c ->
                let trace = Mctel.Trace.mint () in
                let units0 = scrape_value c "mcheck_units_run_total" in
                ignore
                  (expect_checked
                     (Client.check_buffer c
                        { plain with Proto.co_trace = trace }
                        ~name:"b.c" ~contents:buggy_src));
                Alcotest.(check bool) "mcheck_units_run_total moved" true
                  (scrape_value c "mcheck_units_run_total" > units0);
                (match Client.flight c with
                | Error e -> Alcotest.fail (Client.err_to_string e)
                | Ok dump ->
                  Alcotest.(check bool) "dump carries the minted trace" true
                    (contains_sub dump trace));
                let fr = Serve.Server.flight_recorder (Oracle.server d) in
                match
                  List.find_opt
                    (fun e -> String.equal e.Mctel.Flight.fl_trace trace)
                    (Mctel.Flight.entries fr)
                with
                | None -> Alcotest.fail "no flight entry for the trace"
                | Some e ->
                  let names =
                    List.map
                      (fun sp -> sp.Mcobs.sp_name)
                      e.Mctel.Flight.fl_spans
                  in
                  List.iter
                    (fun name ->
                      Alcotest.(check bool) (name ^ " span in the tree")
                        true (List.mem name names))
                    [ "serve.request"; "api.check_buffer"; "mcd.schedule" ])));
  ]

(* ------------------------------------------------------------------ *)
(* Dogfood: msg_length over a Clite model of Proto's framing           *)
(* ------------------------------------------------------------------ *)

(* [Proto.frame]/[write_frame] put the payload's exact length in the
   header and send the payload bytes with it; [read_frame] trusts the
   header's claim.  Modeled on FLASH primitives, that is precisely the
   contract [msg_length] checks: a nonzero length claim must travel
   with data (F_DATA), a zero claim must not.  The faithful model must
   pass; a variant that claims LEN_NODATA while sending payload bytes
   — a frame whose header lies about its body — must be flagged. *)

let proto_spec =
  {
    Flash_api.p_name = "serve-proto-model";
    p_handlers =
      List.map
        (fun name ->
          {
            Flash_api.h_name = name;
            h_kind = Flash_api.Hw_handler;
            h_lane_allowance = [| 1; 1; 1; 1 |];
            h_no_stack = false;
          })
        [ "write_frame"; "write_empty_frame"; "write_frame_lying_header" ];
    p_free_funcs = [];
    p_use_funcs = [];
    p_cond_free_funcs = [];
  }

let faithful_model =
  (* write_frame: header length = payload length, payload attached *)
  "void write_frame(void) { HANDLER_GLOBALS(header.nh.len) = LEN_WORD; \
   NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); } void \
   write_empty_frame(void) { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA; \
   NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, 0); }"

let lying_model =
  "void write_frame_lying_header(void) { HANDLER_GLOBALS(header.nh.len) = \
   LEN_NODATA; NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); }"

let parse src =
  Parsed.ok (Frontend.parse_strings [ ("proto_model.c", Prelude.text ^ src) ])

let dogfood_cases =
  [
    t "the faithful framing model passes msg_length" `Quick (fun () ->
        Alcotest.(check int) "no diagnostics" 0
          (List.length
             (Checks.run Msg_length.name ~spec:proto_spec
                (parse faithful_model))));
    t "a header that lies about its payload is flagged" `Quick (fun () ->
        Alcotest.(check int) "one diagnostic" 1
          (List.length
             (Checks.run Msg_length.name ~spec:proto_spec
                (parse lying_model))));
  ]

let suite =
  ( "serve",
    List.map QCheck_alcotest.to_alcotest
      [
        prop_request_roundtrip;
        prop_response_roundtrip;
        prop_decode_total;
        prop_trailing_garbage_rejected;
      ]
    @ framing_cases @ daemon_cases @ supervised_cases @ telemetry_cases
    @ dogfood_cases )
