(** Interpreter tests: Clite semantics plus the MAGIC builtins. *)

let t = Alcotest.test_case

(* run [main] in a program and return its result *)
let eval_program ?(name = "main") src : int =
  let tus =
    Parsed.ok (Frontend.parse_strings [ ("t.c", Prelude.text ^ src) ])
  in
  let program = Callgraph.build tus in
  let consts = Interp.consts_of_program tus in
  let node = Interp.create_node 0 in
  let env = Interp.make_env ~node ~program ~consts () in
  match Callgraph.find_func program name with
  | Some f -> Interp.call_function env f []
  | None -> Alcotest.fail ("no function " ^ name)

let check_eval name src expected =
  t name `Quick (fun () ->
      Alcotest.(check int) name expected (eval_program src))

let semantics_cases =
  [
    check_eval "arithmetic" "long main(void) { return 2 + 3 * 4; }" 14;
    check_eval "division truncates"
      "long main(void) { return 7 / 2; }" 3;
    check_eval "division by zero yields zero"
      "long main(void) { return 7 / (1 - 1); }" 0;
    check_eval "bitwise ops"
      "long main(void) { return (5 & 3) | (1 << 4); }" 17;
    check_eval "comparison returns 0/1"
      "long main(void) { return (3 < 4) + (4 < 3); }" 1;
    check_eval "short circuit and"
      "long side; long bump(void) { side = side + 1; return 1; }\n\
       long main(void) { long r; side = 0; r = 0 && bump(); return side; }"
      0;
    check_eval "short circuit or"
      "long side; long bump(void) { side = side + 1; return 1; }\n\
       long main(void) { long r; side = 0; r = 1 || bump(); return side; }"
      0;
    check_eval "if else"
      "long main(void) { if (2 > 1) { return 10; } else { return 20; } }" 10;
    check_eval "while loop"
      "long main(void) { long i; long s; i = 0; s = 0; while (i < 5) { s = \
       s + i; i = i + 1; } return s; }"
      10;
    check_eval "for loop with break"
      "long main(void) { long i; long s; s = 0; for (i = 0; i < 100; i++) { \
       if (i == 4) { break; } s = s + 1; } return s; }"
      4;
    check_eval "continue skips"
      "long main(void) { long i; long s; s = 0; for (i = 0; i < 6; i++) { \
       if (i % 2) { continue; } s = s + 1; } return s; }"
      3;
    check_eval "do-while runs once"
      "long main(void) { long n; n = 0; do { n = n + 1; } while (0); return \
       n; }"
      1;
    check_eval "switch dispatch"
      "long main(void) { switch (2) { case 1: return 10; case 2: return 20; \
       default: return 30; } }"
      20;
    check_eval "switch default"
      "long main(void) { switch (9) { case 1: return 10; default: return \
       30; } }"
      30;
    check_eval "switch fall-through"
      "long main(void) { long n; n = 0; switch (1) { case 1: n = n + 1; \
       case 2: n = n + 10; break; case 3: n = n + 100; } return n; }"
      11;
    check_eval "function calls with arguments"
      "long add(long a, long b) { return a + b; }\n\
       long main(void) { return add(3, add(4, 5)); }"
      12;
    check_eval "recursion"
      "long fib(long n) { if (n < 2) { return n; } return fib(n - 1) + \
       fib(n - 2); }\n\
       long main(void) { return fib(10); }"
      55;
    check_eval "globals persist across calls"
      "long g; void bump(void) { g = g + 1; }\n\
       long main(void) { g = 0; bump(); bump(); bump(); return g; }"
      3;
    check_eval "enum constants resolve"
      "long main(void) { return LEN_CACHELINE + F_DATA; }" 17;
    check_eval "pre and post increment"
      "long main(void) { long i; long a; i = 5; a = i++; return a * 100 + \
       i + (++i); }"
      (* a=5, i becomes 6, then ++i makes 7: 500 + 6 + 7 *)
      513;
    check_eval "ternary"
      "long main(void) { return 1 ? 7 : 9; }" 7;
    check_eval "scoping: inner block shadows"
      "long main(void) { long x; x = 1; if (1) { long x; x = 99; } return \
       x; }"
      1;
    t "infinite loop runs out of fuel, not forever" `Quick (fun () ->
        let tus =
          Parsed.ok
            (Frontend.parse_strings
               [ ("t.c", Prelude.text ^ "void spin(void) { while (1) { x = x + 1; } }") ])
        in
        let program = Callgraph.build tus in
        let consts = Interp.consts_of_program tus in
        let node = Interp.create_node 0 in
        let f = Option.get (Callgraph.find_func program "spin") in
        let faults, _ =
          Interp.run_handler ~max_steps:5_000 ~node ~program ~consts f
        in
        Alcotest.(check bool) "fuel fault" true
          (List.exists
             (function Interp.F_fatal _ -> true | _ -> false)
             faults));
  ]

(* builtin semantics against a fresh node *)
let run_handler_src src ~name =
  let tus =
    Parsed.ok (Frontend.parse_strings [ ("t.c", Prelude.text ^ src) ])
  in
  let program = Callgraph.build tus in
  let consts = Interp.consts_of_program tus in
  let node = Interp.create_node 0 in
  (* hardware hands the handler a buffer *)
  node.Interp.current_buffer <- Buffers.allocate node.Interp.buffers;
  let f = Option.get (Callgraph.find_func program name) in
  let faults, sent = Interp.run_handler ~node ~program ~consts f in
  (node, faults, sent)

let builtin_cases =
  [
    t "NI_SEND builds a message from the header" `Quick (fun () ->
        let _, faults, sent =
          run_handler_src ~name:"H"
            "void H(void) { HANDLER_GLOBALS(header.nh.dest) = 2; \
             HANDLER_GLOBALS(header.nh.len) = LEN_NODATA; NI_SEND(MSG_NAK, \
             F_NODATA, 0, W_NOWAIT, 1, 0); FREE_DB(); }"
        in
        Alcotest.(check int) "no faults" 0 (List.length faults);
        match sent with
        | [ m ] ->
          Alcotest.(check string) "opcode" "MSG_NAK" m.Message.opcode;
          Alcotest.(check int) "dest" 2 m.Message.dst;
          Alcotest.(check int) "reply lane" Flash_api.lane_net_reply
            m.Message.lane
        | _ -> Alcotest.fail "expected one send");
    t "inconsistent length records a fault" `Quick (fun () ->
        let _, faults, _ =
          run_handler_src ~name:"H"
            "void H(void) { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA; \
             NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); FREE_DB(); }"
        in
        Alcotest.(check bool) "length fault" true
          (List.exists
             (function Interp.F_len_mismatch _ -> true | _ -> false)
             faults));
    t "double free is caught at run time" `Quick (fun () ->
        let _, faults, _ =
          run_handler_src ~name:"H" "void H(void) { FREE_DB(); FREE_DB(); }"
        in
        Alcotest.(check bool) "double free" true
          (List.exists
             (function
               | Interp.F_buffer (Buffers.Double_free _) -> true
               | _ -> false)
             faults));
    t "handler globals read/write by path" `Quick (fun () ->
        let node, _, _ =
          run_handler_src ~name:"H"
            "void H(void) { HANDLER_GLOBALS(dirEntry.vector) = 42; FREE_DB(); }"
        in
        Alcotest.(check int) "written" 42
          (Interp.global node "dirEntry.vector"));
    t "buffer write then read through MISCBUS" `Quick (fun () ->
        let node, faults, _ =
          run_handler_src ~name:"H"
            "void H(void) { long v; MISCBUS_WRITE_DB(0, 3, 99); \
             WAIT_FOR_DB_FULL(0); v = MISCBUS_READ_DB(0, 3); \
             HANDLER_GLOBALS(header.nh.misc) = v; FREE_DB(); }"
        in
        Alcotest.(check int) "no faults" 0 (List.length faults);
        Alcotest.(check int) "read back" 99
          (Interp.global node "header.nh.misc"));
    t "allocation failure path" `Quick (fun () ->
        (* exhaust the pool first, then ALLOCATE_DB must fail the check *)
        let tus =
          Parsed.ok
            (Frontend.parse_strings
               [
                 ( "t.c",
                   Prelude.text
                   ^ "void H(void) { long b; b = ALLOCATE_DB(); if \
                      (ALLOC_FAILED(b)) { HANDLER_GLOBALS(header.nh.misc) = \
                      77; return; } FREE_DB(); }" );
               ])
        in
        let program = Callgraph.build tus in
        let consts = Interp.consts_of_program tus in
        let node = Interp.create_node ~buffer_count:1 0 in
        node.Interp.current_buffer <- Buffers.allocate node.Interp.buffers;
        let f = Option.get (Callgraph.find_func program "H") in
        let _ = Interp.run_handler ~node ~program ~consts f in
        Alcotest.(check int) "took the failure branch" 77
          (Interp.global node "header.nh.misc"));
  ]

let suite = ("interp", semantics_cases @ builtin_cases)
