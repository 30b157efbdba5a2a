(** Additional simulator and golden-protocol coverage: scaling, seed
    robustness, conservation laws, and source round trips. *)

let t = Alcotest.test_case

let run ?(transactions = 800) ?(n_nodes = 4) ?(n_lines = 8) ?(seed = 42)
    variant =
  Sim.run
    {
      Sim.default_config with
      Sim.transactions;
      n_nodes;
      n_lines;
      seed;
      variant;
    }

let cases =
  [
    t "clean protocol scales to 8 nodes" `Slow (fun () ->
        let r = run ~n_nodes:8 ~n_lines:16 Golden.Clean in
        Alcotest.(check int) "faults" 0 (List.length r.Sim.faults);
        Alcotest.(check int) "corruptions" 0 r.Sim.stats.Sim.corruptions;
        Alcotest.(check int) "leaks" 0 r.Sim.leaked_buffers);
    t "clean protocol scales to 2 nodes" `Slow (fun () ->
        let r = run ~n_nodes:2 ~n_lines:4 Golden.Clean in
        Alcotest.(check int) "faults" 0 (List.length r.Sim.faults);
        Alcotest.(check int) "corruptions" 0 r.Sim.stats.Sim.corruptions);
    t "clean protocol is clean across seeds" `Slow (fun () ->
        List.iter
          (fun seed ->
            let r = run ~transactions:500 ~seed Golden.Clean in
            Alcotest.(check int)
              (Printf.sprintf "faults at seed %d" seed)
              0
              (List.length r.Sim.faults);
            Alcotest.(check int)
              (Printf.sprintf "corruptions at seed %d" seed)
              0 r.Sim.stats.Sim.corruptions)
          [ 1; 7; 1234 ]);
    t "every delivered message runs exactly one handler" `Slow (fun () ->
        let r = run Golden.Clean in
        Alcotest.(check int) "messages = handler runs"
          r.Sim.stats.Sim.messages r.Sim.stats.Sim.handler_runs);
    t "dirty-remote traffic is actually exercised" `Slow (fun () ->
        (* the NAK/intervention/writeback machinery must fire, otherwise
           the rare paths the bugs sit on are not reachable *)
        let r = run Golden.Clean in
        Alcotest.(check bool) "NAKs occurred" true (r.Sim.stats.Sim.naks > 0));
    t "uncached traffic reaches its handler" `Slow (fun () ->
        let r = run Golden.Clean in
        Alcotest.(check bool) "uncached ops ran" true
          (r.Sim.stats.Sim.uncached > 0));
    t "buggy protocol under a write-free workload leaks less" `Slow
      (fun () ->
        (* without writes there is no dirty state, so the double-free
           corner is unreachable: rare-path bugs need the right traffic *)
        let cfg =
          {
            Sim.default_config with
            Sim.transactions = 800;
            variant = Golden.Buggy;
            write_pct = 0;
            uncached_pct = 0;
          }
        in
        let r = Sim.run cfg in
        Alcotest.(check bool) "no double free without writes" true
          (not (List.mem_assoc "double free" r.Sim.first_detection)));
    t "golden sources parse and print stably" `Quick (fun () ->
        List.iter
          (fun variant ->
            let tus = Golden.program variant in
            List.iter
              (fun tu ->
                let printed = Pp.tunit_to_string tu in
                let tu2 =
                  Parsed.ok (Parser.parse_string_recovering ~file:"g.c" printed)
                in
                Alcotest.(check int) "function count"
                  (List.length (Ast.functions tu))
                  (List.length (Ast.functions tu2)))
              tus)
          [ Golden.Clean; Golden.Buggy ]);
    t "handler map covers every opcode the protocol sends" `Quick (fun () ->
        let tus = Golden.program Golden.Clean in
        let sent_opcodes = ref [] in
        List.iter
          (fun tu ->
            List.iter
              (fun (f : Ast.func) ->
                List.iter
                  (fun s ->
                    Ast.iter_stmt_exprs
                      (fun e ->
                        Ast.iter_expr
                          (fun e ->
                            match Cutil.ni_opcode e with
                            | Some op
                              when not (List.mem op !sent_opcodes) ->
                              sent_opcodes := op :: !sent_opcodes
                            | _ -> ())
                          e)
                      s)
                  f.Ast.f_body)
              (Ast.functions tu))
          tus;
        List.iter
          (fun op ->
            Alcotest.(check bool)
              (op ^ " has a handler")
              true
              (List.mem_assoc op Golden.handler_map))
          !sent_opcodes);
    t "spurious has_buffer annotations are reported unused" `Quick
      (fun () ->
        let spec =
          {
            Flash_api.p_name = "t";
            p_handlers =
              [
                {
                  Flash_api.h_name = "H";
                  h_kind = Flash_api.Hw_handler;
                  h_lane_allowance = [| 1; 1; 1; 1 |];
                  h_no_stack = false;
                };
              ];
            p_free_funcs = [];
            p_use_funcs = [];
            p_cond_free_funcs = [];
          }
        in
        let tus =
          Parsed.ok
            (Frontend.parse_strings
               [
                 ( "t.c",
                   Prelude.text
                   ^ "void H(void) { has_buffer(); FREE_DB(); }" );
               ])
        in
        let outcome = Buffer_mgmt.run_with_annotations ~spec tus in
        Alcotest.(check int) "unused" 1
          outcome.Buffer_mgmt.unused_annotations;
        Alcotest.(check int) "useful" 0
          outcome.Buffer_mgmt.useful_annotations);
  ]

let suite = ("sim scaling + golden", cases)

(* the five directory organisations all sustain the same coherent traffic *)
let directory_cases =
  List.map
    (fun (module D : Directory.S) ->
      t
        (Printf.sprintf "clean protocol runs on the %s directory" D.name)
        `Slow
        (fun () ->
          let r =
            Sim.run
              {
                Sim.default_config with
                Sim.transactions = 600;
                directory = (module D);
              }
          in
          Alcotest.(check int) "faults" 0 (List.length r.Sim.faults);
          Alcotest.(check int) "corruptions" 0 r.Sim.stats.Sim.corruptions;
          Alcotest.(check int) "leaks" 0 r.Sim.leaked_buffers;
          Alcotest.(check bool) "directory invariant" true
            r.Sim.directory_ok))
    Directory.all

let suite =
  let name, cases0 = suite in
  (name, cases0 @ directory_cases)
