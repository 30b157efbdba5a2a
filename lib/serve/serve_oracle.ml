(* The daemon-vs-CLI differential: one daemon (its workers parallel +
   incremental — the interesting warm path), one plain sequential local
   session, every generated program through both.  Anything that is not
   byte-identical — diagnostic text, findings count, exit code — is an
   oracle failure carrying the reproducing seed. *)

type t = {
  srv : Server.t;
  thread : Thread.t;
  o_addr : Proto.addr;
  local : Mcheck_api.Session.t;
}

let next_id = Atomic.make 0

let fresh_addr () =
  Proto.Unix_sock
    (Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "mcheckd-%d-%d.sock" (Unix.getpid ())
          (Atomic.fetch_and_add next_id 1)))

let default_config =
  {
    Server.default_config with
    Server.api =
      { Mcheck_api.default_config with jobs = 2; incremental = true };
  }

let start ?(config = default_config) () =
  let o_addr = fresh_addr () in
  match Server.create { config with Server.addr = o_addr } with
  | Error msg -> failwith ("serve_oracle: " ^ msg)
  | Ok srv ->
    let thread = Thread.create Server.run srv in
    (* create has already bound the socket; wait for the accept loop *)
    let rec wait n =
      let again () =
        if n = 0 then failwith "serve_oracle: daemon did not come up"
        else begin
          Thread.delay 0.05;
          wait (n - 1)
        end
      in
      match Client.connect o_addr with
      | Error _ -> again ()
      | Ok c -> (
        let r = Client.ping c in
        Client.close c;
        match r with Ok () -> () | Error _ -> again ())
    in
    wait 100;
    {
      srv;
      thread;
      o_addr;
      local = Mcheck_api.Session.create ~config:Mcheck_api.default_config ();
    }

let addr t = t.o_addr
let server t = t.srv

let stop t =
  (match Client.connect t.o_addr with
  | Ok c ->
    ignore (Client.drain c);
    Client.close c
  | Error _ -> Server.initiate_drain t.srv);
  Thread.join t.thread;
  Mcheck_api.Session.close t.local

let ropts =
  { Mcheck_api.ro_explain = false; ro_verbose = false; ro_quiet = false }

let plain_opts =
  {
    Proto.co_checkers = [];
    co_explain = false;
    co_verbose = false;
    co_quiet = false;
    co_strict = false;
    co_trace = "";
  }

let fail (p : Fuzz_gen.program) detail =
  { Fuzz_oracle.f_seed = p.Fuzz_gen.seed; f_oracle = "serve";
    f_detail = detail }

let check t (p : Fuzz_gen.program) =
  let name = "fz.c" in
  (* the prelude-free body: both sides' check_buffer prepend the
     prelude themselves, exactly like a file read *)
  let contents = Pp.tunit_to_string p.Fuzz_gen.raw in
  let local = Mcheck_api.Session.check_buffer t.local ~name ~contents in
  let local_text =
    String.concat ""
      (List.map
         (Mcheck_api.render_diag ropts)
         (Mcheck_api.report_diags local))
  in
  let local_exit = Robust.exit_code local.Mcheck_api.r_outcome in
  match Client.connect t.o_addr with
  | Error e -> [ fail p ("connect: " ^ Client.err_to_string e) ]
  | Ok c -> (
    let r = Client.check_buffer c plain_opts ~name ~contents in
    Client.close c;
    match r with
    | Error e -> [ fail p ("transport: " ^ Client.err_to_string e) ]
    | Ok (Client.Refused msg) -> [ fail p ("refused: " ^ msg) ]
    | Ok (Client.Overloaded ms) ->
      [ fail p (Printf.sprintf "overloaded (retry after %dms)" ms) ]
    | Ok (Client.Checked res) ->
      let remote_text =
        String.concat ""
          (List.map (fun d -> d.Proto.d_text) res.Client.cr_diags)
      in
      List.filter_map Fun.id
        [
          (if String.equal remote_text local_text then None
           else
             Some
               (fail p
                  (Printf.sprintf
                     "daemon output differs from CLI (%d vs %d bytes)"
                     (String.length remote_text)
                     (String.length local_text))));
          (if res.Client.cr_findings = local.Mcheck_api.r_findings then None
           else
             Some
               (fail p
                  (Printf.sprintf "findings %d on the wire, %d locally"
                     res.Client.cr_findings local.Mcheck_api.r_findings)));
          (if res.Client.cr_exit = local_exit then None
           else
             Some
               (fail p
                  (Printf.sprintf "exit %d on the wire, %d locally"
                     res.Client.cr_exit local_exit)));
        ])
