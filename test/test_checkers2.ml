(** Checker behaviour on hand-written snippets: execution restrictions,
    allocation checks, directory entries, send/wait pairing. *)

let t = Alcotest.test_case

let spec_for ?(no_stack = []) ?(sw = []) handlers : Flash_api.spec =
  {
    Flash_api.p_name = "test";
    p_handlers =
      List.map
        (fun name ->
          {
            Flash_api.h_name = name;
            h_kind = Flash_api.Hw_handler;
            h_lane_allowance = [| 1; 1; 1; 1 |];
            h_no_stack = List.mem name no_stack;
          })
        handlers
      @ List.map
          (fun name ->
            {
              Flash_api.h_name = name;
              h_kind = Flash_api.Sw_handler;
              h_lane_allowance = [| 1; 1; 1; 1 |];
              h_no_stack = false;
            })
          sw;
    p_free_funcs = [];
    p_use_funcs = [];
    p_cond_free_funcs = [];
  }

let parse src =
  Parsed.ok (Frontend.parse_strings [ ("t.c", Prelude.text ^ src) ])

(* ------------------------------------------------------------------ *)
(* execution restrictions                                              *)
(* ------------------------------------------------------------------ *)

let exec ?spec src =
  let spec = match spec with Some s -> s | None -> spec_for [ "H" ] in
  Checks.run Exec_restrict.name ~spec (parse src)

let n_exec ?spec src = List.length (exec ?spec src)

let good_handler_body = "HANDLER_DEFS();\n  SIM_HANDLER_HOOK();\n  x = 1;"

let exec_cases =
  [
    t "well-formed handler is quiet" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (n_exec ("void H(void) { " ^ good_handler_body ^ " }")));
    t "handler with a result errs" `Quick (fun () ->
        Alcotest.(check bool) "flagged" true
          (n_exec ("int H(void) { " ^ good_handler_body ^ " return 0; }") > 0));
    t "handler with parameters errs" `Quick (fun () ->
        Alcotest.(check bool) "flagged" true
          (n_exec ("void H(int a) { " ^ good_handler_body ^ " }") > 0));
    t "integer-only routine passes exec checks" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (n_exec "void util(void) { SIM_PROCEDURE_HOOK(); long x; x = x * 2; }"));
    t "deprecated macro warns" `Quick (fun () ->
        Alcotest.(check bool) "flagged" true
          (n_exec
             ("void H(void) { " ^ good_handler_body
            ^ " y = MISCBUS_READ_DB_OLD(0, 0); }")
          > 0));
    t "missing HANDLER_DEFS flagged" `Quick (fun () ->
        Alcotest.(check bool) "flagged" true
          (n_exec "void H(void) { SIM_HANDLER_HOOK(); x = 1; }" > 0));
    t "missing simulator hook flagged" `Quick (fun () ->
        Alcotest.(check bool) "flagged" true
          (n_exec "void H(void) { HANDLER_DEFS(); x = 1; }" > 0));
    t "software handler needs its own hook" `Quick (fun () ->
        let spec = spec_for ~sw:[ "S" ] [] in
        Alcotest.(check bool) "flagged" true
          (n_exec ~spec "void S(void) { HANDLER_DEFS(); SIM_HANDLER_HOOK(); }"
          > 0);
        Alcotest.(check int) "correct hook ok" 0
          (n_exec ~spec
             "void S(void) { HANDLER_DEFS(); SIM_SWHANDLER_HOOK(); }"));
    t "procedure hook required" `Quick (fun () ->
        Alcotest.(check bool) "flagged" true
          (n_exec "void util(void) { x = 1; }" > 0);
        Alcotest.(check int) "with hook ok" 0
          (n_exec "void util(void) { SIM_PROCEDURE_HOOK(); x = 1; }"));
    t "no-stack handler requires the annotation" `Quick (fun () ->
        let spec = spec_for ~no_stack:[ "H" ] [ "H" ] in
        Alcotest.(check bool) "missing NO_STACK flagged" true
          (n_exec ~spec ("void H(void) { " ^ good_handler_body ^ " }") > 0);
        Alcotest.(check int) "with NO_STACK ok" 0
          (n_exec ~spec
             "void H(void) { HANDLER_DEFS(); SIM_HANDLER_HOOK(); NO_STACK(); \
              x = 1; }"));
    t "no-stack handler cannot take addresses" `Quick (fun () ->
        let spec = spec_for ~no_stack:[ "H" ] [ "H" ] in
        Alcotest.(check bool) "flagged" true
          (n_exec ~spec
             "void H(void) { HANDLER_DEFS(); SIM_HANDLER_HOOK(); NO_STACK(); \
              long v; x = &v; }"
          > 0));
    t "no-stack handler cannot declare big aggregates" `Quick (fun () ->
        let spec = spec_for ~no_stack:[ "H" ] [ "H" ] in
        Alcotest.(check bool) "flagged" true
          (n_exec ~spec
             "void H(void) { HANDLER_DEFS(); SIM_HANDLER_HOOK(); NO_STACK(); \
              long big[4]; }"
          > 0));
    t "handler call needs SET_STACKPTR first" `Quick (fun () ->
        let spec = spec_for ~no_stack:[ "H" ] [ "H"; "H2" ] in
        Alcotest.(check bool) "bare call flagged" true
          (n_exec ~spec
             "void H(void) { HANDLER_DEFS(); SIM_HANDLER_HOOK(); NO_STACK(); \
              H2(); }"
          > 0);
        Alcotest.(check bool) "prepared call ok" true
          (n_exec ~spec
             "void H(void) { HANDLER_DEFS(); SIM_HANDLER_HOOK(); NO_STACK(); \
              SET_STACKPTR(); H2(); }"
          = 0));
    t "spurious SET_STACKPTR flagged" `Quick (fun () ->
        let spec = spec_for ~no_stack:[ "H" ] [ "H"; "H2" ] in
        Alcotest.(check bool) "flagged" true
          (n_exec ~spec
             "void H(void) { HANDLER_DEFS(); SIM_HANDLER_HOOK(); NO_STACK(); \
              SET_STACKPTR(); SET_STACKPTR(); H2(); }"
          > 0));
  ]

(* ------------------------------------------------------------------ *)
(* no-float (the paper's separate 7-line checker)                      *)
(* ------------------------------------------------------------------ *)

let nf src =
  List.length (Checks.run No_float.name ~spec:(spec_for [ "H" ]) (parse src))

let no_float_cases =
  [
    t "floating point literal errs" `Quick (fun () ->
        Alcotest.(check bool) "flagged" true
          (nf "void H(void) { long y; y = y * 1.5; }" > 0));
    t "floating point variable errs" `Quick (fun () ->
        Alcotest.(check bool) "flagged" true
          (nf "void H(void) { double d; }" > 0));
    t "float literal with f suffix errs" `Quick (fun () ->
        Alcotest.(check bool) "flagged" true
          (nf "void util(void) { float f; f = 0.5f; }" > 0));
    t "float parameter errs" `Quick (fun () ->
        Alcotest.(check bool) "flagged" true
          (nf "void util(double x) { }" > 0));
    t "float-typed arithmetic through a variable errs" `Quick (fun () ->
        Alcotest.(check bool) "flagged" true
          (nf "double g; void H(void) { long y; y = g + 1; }" > 0));
    t "integer-only code is quiet" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (nf "void H(void) { long x; x = (x << 3) / 7; }"));
  ]

(* ------------------------------------------------------------------ *)
(* allocation check                                                    *)
(* ------------------------------------------------------------------ *)

let alloc src =
  List.length (Checks.run Alloc_check.name ~spec:(spec_for [ "H" ]) (parse src))

let alloc_cases =
  [
    t "checked allocation is fine" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (alloc
             "void H(void) { long b; b = ALLOCATE_DB(); if (ALLOC_FAILED(b)) \
              { return; } MISCBUS_WRITE_DB(b, 0, 1); }"));
    t "write before the check errs" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (alloc
             "void H(void) { long b; b = ALLOCATE_DB(); MISCBUS_WRITE_DB(b, \
              0, 1); if (ALLOC_FAILED(b)) { return; } }"));
    t "debug print before the check errs (the dyn_ptr FPs)" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (alloc
             "void H(void) { long b; b = ALLOCATE_DB(); DEBUG_PRINT(\"b\", \
              b); if (ALLOC_FAILED(b)) { return; } }"));
    t "checking a different variable does not count" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (alloc
             "void H(void) { long b; long c; b = ALLOCATE_DB(); if \
              (ALLOC_FAILED(c)) { return; } MISCBUS_WRITE_DB(b, 0, 1); }"));
    t "uses of other variables are not flagged" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (alloc
             "void H(void) { long b; long c; b = ALLOCATE_DB(); \
              MISCBUS_WRITE_DB(c, 0, 1); if (ALLOC_FAILED(b)) { return; } }"));
    t "applied counts allocation sites" `Quick (fun () ->
        Alcotest.(check int) "applied" 2
          (Alloc_check.applied
             (parse
                "void H(void) { long a; long b; a = ALLOCATE_DB(); b = \
                 ALLOCATE_DB(); }")));
  ]

(* ------------------------------------------------------------------ *)
(* directory entries                                                   *)
(* ------------------------------------------------------------------ *)

let dir ?spec src =
  let spec = match spec with Some s -> s | None -> spec_for [ "H" ] in
  List.length (Checks.run Dir_entry.name ~spec (parse src))

let dir_cases =
  [
    t "load-modify-writeback is fine" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (dir
             "void H(void) { long a; LOAD_DIR_ENTRY(DIR_ADDR(a)); \
              HANDLER_GLOBALS(dirEntry.vector) = 1; \
              WRITEBACK_DIR_ENTRY(DIR_ADDR(a)); }"));
    t "modification without writeback errs" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (dir
             "void H(void) { long a; LOAD_DIR_ENTRY(DIR_ADDR(a)); \
              HANDLER_GLOBALS(dirEntry.vector) = 1; }"));
    t "read before load errs" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (dir "void H(void) { x = HANDLER_GLOBALS(dirEntry.vector); }"));
    t "speculative NAK path is pruned" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (dir
             "void H(void) { long a; LOAD_DIR_ENTRY(DIR_ADDR(a)); \
              HANDLER_GLOBALS(dirEntry.pending) = 1; \
              HANDLER_GLOBALS(header.nh.type) = MSG_NAK; NI_SEND(MSG_NAK, \
              F_NODATA, 0, W_NOWAIT, 1, 0); }"));
    t "speculative backout without a NAK is flagged" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (dir
             "void H(void) { long a; LOAD_DIR_ENTRY(DIR_ADDR(a)); \
              HANDLER_GLOBALS(dirEntry.pending) = 1; BACKOUT_REQUEST(0); }"));
    t "hand-computed address warns" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (dir "void H(void) { long a; LOAD_DIR_ENTRY(a * 8 + 4096); }"));
    t "subroutine modification warns (caller writes back)" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (dir
             "void MarkPending(void) { SIM_PROCEDURE_HOOK(); \
              HANDLER_GLOBALS(dirEntry.pending) = 1; }"));
    t "subroutine reads are allowed" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (dir
             "void Walk(void) { SIM_PROCEDURE_HOOK(); x = \
              HANDLER_GLOBALS(dirEntry.head); }"));
    t "writeback on the other path only: the bad path errs" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (dir
             "void H(void) { long a; LOAD_DIR_ENTRY(DIR_ADDR(a)); \
              HANDLER_GLOBALS(dirEntry.vector) = 1; if (c) { \
              WRITEBACK_DIR_ENTRY(DIR_ADDR(a)); } }"));
    t "op-assign modifications are seen" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (dir
             "void H(void) { long a; LOAD_DIR_ENTRY(DIR_ADDR(a)); \
              HANDLER_GLOBALS(dirEntry.vector) |= 4; }"));
  ]

(* ------------------------------------------------------------------ *)
(* send / wait                                                         *)
(* ------------------------------------------------------------------ *)

let sw src =
  List.length (Checks.run Send_wait.name ~spec:(spec_for [ "H" ]) (parse src))

let sw_cases =
  [
    t "send then wait is fine" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (sw
             "void H(void) { PI_SEND(F_NODATA, 0, 0, W_WAIT, 1, 0); \
              WAIT_FOR_PI_REPLY(); }"));
    t "synchronous send never waited errs" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (sw "void H(void) { PI_SEND(F_NODATA, 0, 0, W_WAIT, 1, 0); }"));
    t "waiting on the wrong interface errs" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (sw
             "void H(void) { PI_SEND(F_NODATA, 0, 0, W_WAIT, 1, 0); \
              WAIT_FOR_IO_REPLY(); }"));
    t "second synchronous send before waiting errs" `Quick (fun () ->
        Alcotest.(check bool) "flagged" true
          (sw
             "void H(void) { PI_SEND(F_NODATA, 0, 0, W_WAIT, 1, 0); \
              IO_SEND(F_NODATA, 0, 0, W_WAIT, 1, 0); WAIT_FOR_PI_REPLY(); \
              WAIT_FOR_IO_REPLY(); }"
          > 0));
    t "asynchronous sends need no wait" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (sw "void H(void) { PI_SEND(F_NODATA, 0, 0, W_NOWAIT, 1, 0); }"));
    t "wait missing on one path only" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (sw
             "void H(void) { PI_SEND(F_NODATA, 0, 0, W_WAIT, 1, 0); if (c) \
              { WAIT_FOR_PI_REPLY(); } }"));
    t "hand-rolled wait loop is invisible (the abstraction FPs)" `Quick
      (fun () ->
        Alcotest.(check int) "diags" 1
          (sw
             "void H(void) { long v; PI_SEND(F_NODATA, 0, 0, W_WAIT, 1, 0); \
              while (HANDLER_GLOBALS(header.nh.misc) == 0) { v = v + 1; } }"));
    t "IO interface symmetric" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (sw
             "void H(void) { IO_SEND(F_NODATA, 0, 0, W_WAIT, 1, 0); \
              WAIT_FOR_IO_REPLY(); }"));
    t "applied counts sends and waits" `Quick (fun () ->
        Alcotest.(check int) "applied" 2
          (Send_wait.applied
             (parse
                "void H(void) { PI_SEND(F_NODATA, 0, 0, W_WAIT, 1, 0); \
                 WAIT_FOR_PI_REPLY(); }")));
  ]

let suite =
  ( "checkers (exec, alloc, dir, send-wait)",
    exec_cases @ no_float_cases @ alloc_cases @ dir_cases @ sw_cases )
