(** Printer shapes and checker-utility helpers. *)

let t = Alcotest.test_case

(* print a parsed unit and re-parse: structure must survive, and the
   second print must be identical (fixpoint) *)
let stable src =
  let tu = Parsed.ok (Parser.parse_string_recovering ~file:"t.c" src) in
  let p1 = Pp.tunit_to_string tu in
  let tu2 = Parsed.ok (Parser.parse_string_recovering ~file:"t.c" p1) in
  let p2 = Pp.tunit_to_string tu2 in
  String.equal p1 p2

let check_stable name src =
  t name `Quick (fun () ->
      Alcotest.(check bool) name true (stable src))

(* stronger variant: the reparsed AST must equal the original (modulo
   locations), not just reach a print fixpoint.  These are the minimized
   regressions for the escape bug the fuzz round-trip oracle exposed:
   the printer used to emit OCaml-style decimal escapes (backslash then
   three digits) that the Clite lexer re-read as an escape plus literal
   digits, silently corrupting string contents. *)
let roundtrip_equal name src =
  t name `Quick (fun () ->
      let tu = Parsed.ok (Parser.parse_string_recovering ~file:"t.c" src) in
      let p1 = Pp.tunit_to_string tu in
      let tu2 = Parsed.ok (Parser.parse_string_recovering ~file:"t.c" p1) in
      Alcotest.(check bool) "ast equal" true (Ast.equal_tunit tu tu2);
      Alcotest.(check string) "fixpoint" p1 (Pp.tunit_to_string tu2))

let printer_cases =
  [
    roundtrip_equal "NUL escape in string" "void f(void) { s = \"a\\0b\"; }";
    roundtrip_equal "newline and tab escapes in string"
      "void f(void) { s = \"line1\\nline2\\tend\"; }";
    roundtrip_equal "carriage return in string and char"
      "void f(void) { s = \"cr\\rend\"; c = '\\r'; }";
    roundtrip_equal "quote and backslash escapes"
      "void f(void) { s = \"quo\\\"te\\\\slash\"; d = '\\\\'; q = '\\''; }";
    roundtrip_equal "NUL char literal" "void f(void) { c = '\\0'; }";
    check_stable "do-while" "void f(void) { do { x = x + 1; } while (x < 4); }";
    check_stable "for without init" "void f(void) { for (; i < 3; i++) x(); }";
    check_stable "for without condition" "void f(void) { for (i = 0; ; i++) { if (i > 2) { break; } } }";
    check_stable "bare for" "void f(void) { for (;;) { break; } }";
    check_stable "switch with fallthrough"
      "void f(void) { switch (x) { case 1: a(); case 2: b(); break; default: c(); } }";
    check_stable "labels and gotos"
      "void f(void) { top: if (x) { goto top; } goto out; out: y = 1; }";
    check_stable "union definition" "union u { int a; long b; };";
    check_stable "typedef pointer" "typedef long *lp;";
    check_stable "global array initialiser-free" "long table[16];";
    check_stable "static global" "static int counter;";
    check_stable "chained assignment" "void f(void) { a = b = c = 0; }";
    check_stable "nested ternary"
      "void f(void) { x = a ? b : c ? d : e; }";
    check_stable "char escapes"
      "void f(void) { c = '\\n'; d = '\\\\'; s = \"a\\tb\"; }";
    check_stable "comma in for-step"
      "void f(void) { for (i = 0; i < 9; i = i + 1, j = j + 2) x(); }";
    check_stable "casts and sizeof"
      "void f(void) { x = (unsigned long)p + sizeof(int) + sizeof(x + 1); }";
    t "pointer return type survives" `Quick (fun () ->
        let tu =
          Parsed.ok
            (Parser.parse_string_recovering
               ~file:"t.c" "long *get(void) { return 0; }")
        in
        let printed = Pp.tunit_to_string tu in
        let tu2 =
          Parsed.ok (Parser.parse_string_recovering ~file:"t.c" printed)
        in
        match Ast.functions tu2 with
        | [ f ] ->
          Alcotest.(check bool) "ptr ret" true
            (Ctype.equal f.Ast.f_ret (Ctype.Ptr Ctype.Long))
        | _ -> Alcotest.fail "one function expected");
  ]

(* checker utility helpers *)
let cutil_cases =
  [
    t "count_calls counts once per site" `Quick (fun () ->
        let tu =
          Parsed.ok
            (Frontend.parse ~file:"t.c"
               "void f(void) { if (a) { g(); } while (b) { g(); g(); } }")
        in
        Alcotest.(check int) "three sites" 3 (Cutil.count_calls [ tu ] [ "g" ]));
    t "count_calls sees nested call arguments" `Quick (fun () ->
        let tu =
          Parsed.ok (Frontend.parse ~file:"t.c" "void f(void) { g(g(g(1))); }")
        in
        Alcotest.(check int) "three" 3 (Cutil.count_calls [ tu ] [ "g" ]));
    t "refs_handler_global roots correctly" `Quick (fun () ->
        let e =
          Parsed.expr
            "HANDLER_GLOBALS(dirEntry.vector) + HANDLER_GLOBALS(header.nh.len)"
        in
        Alcotest.(check bool) "dirEntry" true
          (Cutil.refs_handler_global e ~root:"dirEntry");
        Alcotest.(check bool) "header" true
          (Cutil.refs_handler_global e ~root:"header");
        Alcotest.(check bool) "other" false
          (Cutil.refs_handler_global e ~root:"protoStats"));
    t "send_wait_flag extracts the 4th argument" `Quick (fun () ->
        let e =
          Parsed.expr "PI_SEND(F_NODATA, 0, 0, W_WAIT, 1, 0)"
        in
        Alcotest.(check (option string)) "wait" (Some "W_WAIT")
          (Cutil.send_wait_flag e);
        let e2 = Parsed.expr "NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0)" in
        Alcotest.(check (option string)) "nowait" (Some "W_NOWAIT")
          (Cutil.send_wait_flag e2));
    t "ni_opcode reads the first argument" `Quick (fun () ->
        let e =
          Parsed.expr "NI_SEND(MSG_INVAL, F_NODATA, 0, W_NOWAIT, 1, 0)"
        in
        Alcotest.(check (option string)) "opcode" (Some "MSG_INVAL")
          (Cutil.ni_opcode e);
        let e2 = Parsed.expr "PI_SEND(F_DATA, 0, 0, 0, 1, 0)" in
        Alcotest.(check (option string)) "not NI" None (Cutil.ni_opcode e2));
  ]

let suite = ("pp + cutil", printer_cases @ cutil_cases)
