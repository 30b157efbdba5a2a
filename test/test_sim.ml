(** Simulator tests: the clean protocol is fault-free and coherent; the
    buggy protocol manifests the seeded fault classes; the static
    checkers find the golden bugs immediately. *)

let t = Alcotest.test_case

let run ?(transactions = 1500) variant =
  Sim.run { Sim.default_config with Sim.transactions; variant }

let clean = lazy (run Golden.Clean)
let buggy = lazy (run Golden.Buggy)

let sim_cases =
  [
    t "clean: no faults, ever" `Slow (fun () ->
        let r = Lazy.force clean in
        Alcotest.(check int) "faults" 0 (List.length r.Sim.faults));
    t "clean: data integrity holds" `Slow (fun () ->
        let r = Lazy.force clean in
        Alcotest.(check int) "corruptions" 0 r.Sim.stats.Sim.corruptions);
    t "clean: no buffers leak" `Slow (fun () ->
        let r = Lazy.force clean in
        Alcotest.(check int) "leaked" 0 r.Sim.leaked_buffers);
    t "clean: no operation stalls" `Slow (fun () ->
        let r = Lazy.force clean in
        Alcotest.(check int) "stalled" 0 r.Sim.stats.Sim.stalled);
    t "clean: traffic actually flowed" `Slow (fun () ->
        let r = Lazy.force clean in
        Alcotest.(check bool) "messages" true (r.Sim.stats.Sim.messages > 1000);
        Alcotest.(check bool) "NAK retries exercised" true
          (r.Sim.stats.Sim.naks > 0));
    t "buggy: double free manifests eventually" `Slow (fun () ->
        let r = Lazy.force buggy in
        Alcotest.(check bool) "detected" true
          (List.mem_assoc "double free" r.Sim.first_detection));
    t "buggy: fill race manifests eventually" `Slow (fun () ->
        let r = Lazy.force buggy in
        Alcotest.(check bool) "detected" true
          (List.mem_assoc "fill race" r.Sim.first_detection));
    t "buggy: length mismatch manifests eventually" `Slow (fun () ->
        let r = Lazy.force buggy in
        Alcotest.(check bool) "detected" true
          (List.mem_assoc "length mismatch" r.Sim.first_detection));
    t "buggy: the leak wedges the node eventually" `Slow (fun () ->
        let r = Lazy.force buggy in
        Alcotest.(check bool) "pool exhausted" true
          (List.mem_assoc "pool exhausted" r.Sim.first_detection);
        Alcotest.(check bool) "buffers lost" true (r.Sim.leaked_buffers > 0));
    t "buggy: corruption is observed" `Slow (fun () ->
        let r = Lazy.force buggy in
        Alcotest.(check bool) "corruptions" true
          (r.Sim.stats.Sim.corruptions > 0));
    t "buggy: every first detection takes dozens of transactions" `Slow
      (fun () ->
        (* the paper's point: these are rare-path bugs *)
        let r = Lazy.force buggy in
        List.iter
          (fun (cls, at) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s not immediate (at %d)" cls at)
              true (at > 10))
          r.Sim.first_detection);
    t "simulation is deterministic" `Slow (fun () ->
        let a = run ~transactions:400 Golden.Buggy in
        let b = run ~transactions:400 Golden.Buggy in
        Alcotest.(check int) "messages equal" a.Sim.stats.Sim.messages
          b.Sim.stats.Sim.messages;
        Alcotest.(check int) "corruptions equal" a.Sim.stats.Sim.corruptions
          b.Sim.stats.Sim.corruptions);
  ]

(* the static side of the comparison *)
let static_cases =
  [
    t "checkers are quiet on the clean golden protocol" `Quick (fun () ->
        let tus = Golden.program Golden.Clean in
        List.iter
          (fun (c : Registry.checker) ->
            let diags = Registry.run c ~spec:Golden.spec tus in
            Alcotest.(check int) (c.Registry.name ^ " diags") 0
              (List.length diags))
          Registry.all);
    t "checkers pinpoint all four golden bugs" `Quick (fun () ->
        let tus = Golden.program Golden.Buggy in
        let by_checker =
          List.map
            (fun (c : Registry.checker) ->
              (c.Registry.name, Registry.run c ~spec:Golden.spec tus))
            Registry.all
        in
        let count name = List.length (List.assoc name by_checker) in
        Alcotest.(check int) "buffer_mgmt finds free bugs" 2
          (count "buffer_mgmt");
        Alcotest.(check int) "msg_length finds the mismatch" 1
          (count "msg_length");
        Alcotest.(check int) "wait_for_db finds the race" 1
          (count "wait_for_db");
        Alcotest.(check int) "others are quiet" 0
          (count "lanes" + count "alloc_check" + count "dir_entry"
         + count "send_wait" + count "exec_restrict"));
    t "the buggy diagnostics land in the right handlers" `Quick (fun () ->
        let tus = Golden.program Golden.Buggy in
        let all =
          List.concat_map
            (fun (c : Registry.checker) -> Registry.run c ~spec:Golden.spec tus)
            Registry.all
        in
        let funcs = List.map (fun (d : Diag.t) -> d.Diag.func) all in
        List.iter
          (fun f ->
            Alcotest.(check bool) (f ^ " flagged") true (List.mem f funcs))
          [ "NILocalGet"; "NIInval"; "NIUncachedRead"; "NIRemotePut" ]);
  ]

let suite = ("sim + golden", sim_cases @ static_cases)
