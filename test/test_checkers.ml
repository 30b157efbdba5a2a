(** Checker behaviour on hand-written snippets: buffer race, message
    length, buffer management, lanes. *)

let t = Alcotest.test_case

let spec_for ?(free_funcs = []) ?(use_funcs = []) ?(cond_free = [])
    ?(sw = []) ?(allowance = [| 1; 1; 1; 1 |]) handlers : Flash_api.spec =
  {
    Flash_api.p_name = "test";
    p_handlers =
      List.map
        (fun name ->
          {
            Flash_api.h_name = name;
            h_kind = Flash_api.Hw_handler;
            h_lane_allowance = allowance;
            h_no_stack = false;
          })
        handlers
      @ List.map
          (fun name ->
            {
              Flash_api.h_name = name;
              h_kind = Flash_api.Sw_handler;
              h_lane_allowance = allowance;
              h_no_stack = false;
            })
          sw;
    p_free_funcs = free_funcs;
    p_use_funcs = use_funcs;
    p_cond_free_funcs = cond_free;
  }

let parse src =
  Parsed.ok (Frontend.parse_strings [ ("t.c", Prelude.text ^ src) ])

let count_diags run ?spec src =
  let spec =
    match spec with Some s -> s | None -> spec_for [ "H" ] in
  List.length (run ~spec (parse src))

(* ------------------------------------------------------------------ *)
(* buffer race (Figure 2)                                              *)
(* ------------------------------------------------------------------ *)

let race = count_diags (Checks.run Buffer_race.name)

let race_cases =
  [
    t "read after wait is fine" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (race
             "void H(void) { long a; WAIT_FOR_DB_FULL(a); a = \
              MISCBUS_READ_DB(a, 0); }"));
    t "read without wait errs" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (race "void H(void) { long a; a = MISCBUS_READ_DB(a, 0); }"));
    t "wait on one path only" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (race
             "void H(void) { long a; if (a) { WAIT_FOR_DB_FULL(a); } a = \
              MISCBUS_READ_DB(a, 0); }"));
    t "old-style macro also checked" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (race "void H(void) { long a; a = MISCBUS_READ_DB_OLD(a, 0); }"));
    t "wait stops checking, later reads quiet" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (race
             "void H(void) { long a; WAIT_FOR_DB_FULL(a); a = \
              MISCBUS_READ_DB(a, 0); a = MISCBUS_READ_DB(a, 4); }"));
    t "applied counts read sites" `Quick (fun () ->
        Alcotest.(check int) "applied" 2
          (Buffer_race.applied
             (parse
                "void H(void) { long a; WAIT_FOR_DB_FULL(a); a = \
                 MISCBUS_READ_DB(a, 0) + MISCBUS_READ_DB(a, 4); }")));
  ]

(* ------------------------------------------------------------------ *)
(* message length (Figure 3)                                           *)
(* ------------------------------------------------------------------ *)

let len = count_diags (Checks.run Msg_length.name)

let len_cases =
  [
    t "consistent data send" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (len
             "void H(void) { HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE; \
              NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); }"));
    t "data send with zero length errs" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (len
             "void H(void) { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA; \
              NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); }"));
    t "nodata send with word length errs" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (len
             "void H(void) { HANDLER_GLOBALS(header.nh.len) = LEN_WORD; \
              NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, 0); }"));
    t "no warning before any assignment" `Quick (fun () ->
        (* the published checker starts in 'all' and ignores sends until
           the first assignment *)
        Alcotest.(check int) "diags" 0
          (len "void H(void) { NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); }"));
    t "reassignment on the path clears the state" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (len
             "void H(void) { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA; \
              HANDLER_GLOBALS(header.nh.len) = LEN_WORD; NI_SEND(MSG_PUT, \
              F_DATA, 0, W_NOWAIT, 1, 0); }"));
    t "assignment hundreds of lines away still tracked" `Quick (fun () ->
        let pad =
          String.concat ""
            (List.init 120 (fun i -> Printf.sprintf "  x = %d;\n" i))
        in
        Alcotest.(check int) "diags" 1
          (len
             ("void H(void) { long x; HANDLER_GLOBALS(header.nh.len) = \
               LEN_NODATA;\n" ^ pad
             ^ "NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); }")));
    t "PI and IO sends are covered too" `Quick (fun () ->
        Alcotest.(check int) "diags" 2
          (len
             "void H(void) { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA; \
              PI_SEND(F_DATA, 0, 0, W_NOWAIT, 1, 0); IO_SEND(F_DATA, 0, 0, \
              W_NOWAIT, 1, 0); }"));
    t "correlated branches give the two coma FPs" `Quick (fun () ->
        Alcotest.(check int) "diags" 2
          (len
             "void H(void) { long have;\n\
              have = HANDLER_GLOBALS(dirEntry.tags) != 0;\n\
              if (have) { HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE; } \
              else { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA; }\n\
              if (have) { NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); } \
              else { NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, 0); } }"));
  ]

(* ------------------------------------------------------------------ *)
(* buffer management                                                   *)
(* ------------------------------------------------------------------ *)

let buf ?spec src = count_diags (Checks.run Buffer_mgmt.name) ?spec src

let buf_cases =
  [
    t "free once is clean" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (buf "void H(void) { NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, \
                0); FREE_DB(); }"));
    t "double free errs once" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (buf "void H(void) { FREE_DB(); FREE_DB(); }"));
    t "leak at return errs" `Quick (fun () ->
        Alcotest.(check int) "diags" 1 (buf "void H(void) { x = 1; }"));
    t "send after free errs" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (buf
             "void H(void) { FREE_DB(); NI_SEND(MSG_NAK, F_NODATA, 0, \
              W_NOWAIT, 1, 0); }"));
    t "use after free errs" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (buf
             "void H(void) { long a; FREE_DB(); a = MISCBUS_READ_DB(a, 0); }"));
    t "realloc after free is the legal way" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (buf
             "void H(void) { long b; FREE_DB(); b = ALLOCATE_DB(); if \
              (ALLOC_FAILED(b)) { return; } MISCBUS_WRITE_DB(b, 0, 1); \
              NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); FREE_DB(); }"));
    t "allocating while holding errs" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (buf "void H(void) { long b; b = ALLOCATE_DB(); FREE_DB(); }"));
    t "software handler must allocate before sending" `Quick (fun () ->
        let spec = spec_for ~sw:[ "S" ] [] in
        Alcotest.(check int) "diags" 1
          (buf ~spec
             "void S(void) { NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); }"));
    t "software handler with allocation is fine" `Quick (fun () ->
        let spec = spec_for ~sw:[ "S" ] [] in
        Alcotest.(check int) "diags" 0
          (buf ~spec
             "void S(void) { long b; b = ALLOCATE_DB(); if (ALLOC_FAILED(b)) \
              { return; } NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); \
              FREE_DB(); }"));
    t "free-func table frees for the caller" `Quick (fun () ->
        let spec = spec_for ~free_funcs:[ "NakIt" ] [ "H"; "NakIt" ] in
        Alcotest.(check int) "diags" 0
          (buf ~spec "void H(void) { NakIt(); }"));
    t "free-func is itself checked for consistency" `Quick (fun () ->
        let spec = spec_for ~free_funcs:[ "NakIt" ] [ "H" ] in
        (* listed as freeing, but does not free *)
        Alcotest.(check int) "diags" 1
          (buf ~spec "void NakIt(void) { x = 1; }" |> fun n -> n));
    t "use-func must not free" `Quick (fun () ->
        let spec = spec_for ~use_funcs:[ "Peek" ] [ "H" ] in
        Alcotest.(check int) "diags" 1
          (buf ~spec "void Peek(void) { FREE_DB(); }"));
    t "cond-free routine: both branches tracked" `Quick (fun () ->
        let spec = spec_for ~cond_free:[ "TryFree" ] [ "H" ] in
        Alcotest.(check int) "diags" 0
          (buf ~spec
             "void H(void) { if (TryFree()) { return; } FREE_DB(); }"));
    t "negated cond-free also tracked" `Quick (fun () ->
        let spec = spec_for ~cond_free:[ "TryFree" ] [ "H" ] in
        Alcotest.(check int) "diags" 0
          (buf ~spec
             "void H(void) { if (!TryFree()) { FREE_DB(); } }"));
    t "no_free_needed suppresses the leak" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (buf "void H(void) { no_free_needed(); }"));
    t "has_buffer restores the state" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (buf
             "void H(void) { FREE_DB(); has_buffer(); FREE_DB(); }"));
    t "DB_INC_REFCOUNT is aggressively flagged" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (buf "void H(void) { DB_INC_REFCOUNT(); FREE_DB(); }"));
    t "useful annotations are counted" `Quick (fun () ->
        let spec = spec_for [ "H" ] in
        let outcome =
          Buffer_mgmt.run_with_annotations ~spec
            (parse "void H(void) { if (c) { no_free_needed(); return; } \
                    FREE_DB(); }")
        in
        Alcotest.(check int) "useful" 1
          outcome.Buffer_mgmt.useful_annotations);
    t "procedures outside the tables are skipped" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (buf "void util(void) { FREE_DB(); FREE_DB(); }"));
  ]

(* ------------------------------------------------------------------ *)
(* lanes                                                               *)
(* ------------------------------------------------------------------ *)

let lanes_diags ?(allowance = [| 0; 0; 1; 1 |]) src =
  let spec = spec_for ~allowance [ "H" ] in
  Lane_checker.run ~spec (parse src)

let lanes_cases =
  [
    t "within allowance is quiet" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (List.length
             (lanes_diags
                "void H(void) { NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, \
                 0); }")));
    t "one send beyond the allowance errs" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (List.length
             (lanes_diags
                "void H(void) { NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, \
                 0); NI_SEND(MSG_WB_ACK, F_NODATA, 0, W_NOWAIT, 1, 0); }")));
    t "alternative paths do not add up" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (List.length
             (lanes_diags
                "void H(void) { if (c) { NI_SEND(MSG_NAK, F_NODATA, 0, \
                 W_NOWAIT, 1, 0); } else { NI_SEND(MSG_WB_ACK, F_NODATA, 0, \
                 W_NOWAIT, 1, 0); } }")));
    t "request and reply lanes are separate" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (List.length
             (lanes_diags
                "void H(void) { NI_SEND(MSG_GET, F_NODATA, 0, W_NOWAIT, 1, \
                 0); NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, 0); }")));
    t "sends in callees count against the caller" `Quick (fun () ->
        Alcotest.(check int) "diags" 1
          (List.length
             (lanes_diags
                "void helper(void) { NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, \
                 1, 0); }\n\
                 void H(void) { NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, \
                 0); helper(); }")));
    t "space-checked sends in loops are fixed points" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (List.length
             (lanes_diags
                "void H(void) { while (c) { WAIT_FOR_OUTPUT_SPACE(2); \
                 NI_SEND(MSG_INVAL, F_NODATA, 0, W_NOWAIT, 1, 0); } }")));
    t "bare sends in loops are flagged" `Quick (fun () ->
        Alcotest.(check bool) "warned" true
          (lanes_diags
             "void H(void) { while (c) { NI_SEND(MSG_INVAL, F_NODATA, 0, \
              W_NOWAIT, 1, 0); } }"
          <> []));
    t "error carries an inter-procedural back trace" `Quick (fun () ->
        match
          lanes_diags
            "void helper(void) { NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, \
             0); }\n\
             void H(void) { NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, 0); \
             helper(); }"
        with
        | [ d ] ->
          Alcotest.(check bool) "trace" true (List.length d.Diag.trace >= 2)
        | _ -> Alcotest.fail "expected one diagnostic");
    t "a space check with nothing after it is no burst" `Quick (fun () ->
        Alcotest.(check (list string)) "diags" []
          (List.map
             (fun d -> d.Diag.message)
             (lanes_diags "void H(void) { WAIT_FOR_OUTPUT_SPACE(2); }")));
  ]

(* Recursion and loops through calls, where the global pass's order of
   resolving call sites decides which member of a cycle is summarised
   first.  Pinned: the md5 of the [--explain] rendering with and without
   the fixed-point rule, as the checker printed it before the local and
   global passes were split. *)
let lanes_pinned_programs =
  let send op = Printf.sprintf "NI_SEND(%s, F_NODATA, 0, W_NOWAIT, 1, 0);" op in
  let nak = send "MSG_NAK" in
  [
    ( "recursive cycle with sends",
      Printf.sprintf "void R(void) { %s if (c) { R(); } }\nvoid H(void) { R(); }"
        nak );
    ( "mutual recursion",
      Printf.sprintf
        "void A(void) { if (c) { B(); } }\nvoid B(void) { %s A(); }\nvoid \
         H(void) { A(); B(); }"
        nak );
    ( "loop body calls a sending function",
      Printf.sprintf "void S(void) { %s }\nvoid H(void) { while (c) { S(); } }"
        nak );
    ( "loop body calls a covered sender",
      Printf.sprintf
        "void T(void) { WAIT_FOR_OUTPUT_SPACE(3); %s }\nvoid H(void) { for (i \
         = 0; i < 4; i++) { T(); } T(); %s }"
        nak (send "MSG_WB_ACK") );
    ( "calls in conditions and arguments",
      Printf.sprintf
        "int S(void) { %s return 1; }\nint G(int a) { %s return a; }\nvoid \
         H(void) { x = c ? S() : G(S()); if (G(S())) { S(); } }"
        nak (send "MSG_GET") );
    ( "recursion through both operands of a binary operator",
      Printf.sprintf
        "int A(void) { %s B(); return 1; }\nint B(void) { A(); %s %s return \
         1; }\nvoid H(void) { x = A() + B(); }"
        nak nak nak );
    ( "recursion through a conditional expression",
      Printf.sprintf
        "int A(void) { %s B(); return 1; }\nint B(void) { A(); %s %s return \
         1; }\nvoid H(void) { x = c ? A() : B(); y = A() ? B() : 0; }"
        nak nak nak );
    ( "recursion through call arguments",
      Printf.sprintf
        "int A(int a) { %s B(0); return 1; }\nint B(int b) { A(0); %s %s \
         return 1; }\nvoid H(void) { x = B(A(0)); }"
        nak nak nak );
  ]

let lanes_pinned_cases =
  [
    t "recursion and loops through calls are pinned" `Quick (fun () ->
        let spec = spec_for ~allowance:[| 0; 0; 1; 1 |] [ "H" ] in
        let buf = Buffer.create 4096 in
        let ppf = Format.formatter_of_buffer buf in
        List.iter
          (fun (name, src) ->
            List.iter
              (fun fixed_point ->
                Format.fprintf ppf "== %s (%b)@." name fixed_point;
                List.iter
                  (fun d -> Format.fprintf ppf "%a@." Diag.pp_explain d)
                  (Lane_checker.run ~fixed_point ~spec (parse src)))
              [ true; false ])
          lanes_pinned_programs;
        Format.pp_print_flush ppf ();
        let out = Buffer.contents buf in
        let mentions sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length out && (String.sub out i n = sub || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "a cycle is reported" true
          (mentions "recursive cycle performs sends");
        Alcotest.(check bool) "a loop is reported" true
          (mentions "loop body performs sends");
        Alcotest.(check string) "md5" "6abb35a72be107b1c69fd1d07d1172f3"
          (Digest.to_hex (Digest.string out)));
  ]

let suite =
  ("checkers (race, len, buffer, lanes)",
   race_cases @ len_cases @ buf_cases @ lanes_cases @ lanes_pinned_cases)
