(** Pattern language tests: metal-style source patterns with typed
    wildcards. *)

let t = Alcotest.test_case

let e s = Parsed.expr s

let annotated src expr_text =
  (* parse a tiny program so the expression gets real types *)
  let tu =
    Parsed.ok
      (Frontend.parse ~file:"t.c"
         (src ^ "\nvoid probe(void) { " ^ expr_text ^ "; }"))
  in
  let result = ref None in
  List.iter
    (fun (f : Ast.func) ->
      if f.Ast.f_name = "probe" then
        List.iter
          (fun s ->
            match s.Ast.sdesc with
            | Ast.Sexpr ex -> result := Some ex
            | _ -> ())
          f.Ast.f_body)
    (Ast.functions tu);
  Option.get !result

let matches pat expr = Pattern.match_expr pat expr <> None

let cases =
  [
    t "literal call matches" `Quick (fun () ->
        let p = Pattern.expr "FREE_DB()" in
        Alcotest.(check bool) "match" true (matches p (e "FREE_DB()"));
        Alcotest.(check bool) "other call" false (matches p (e "FREE_X()"));
        Alcotest.(check bool) "wrong arity" false (matches p (e "FREE_DB(1)")));
    t "wildcard binds the argument" `Quick (fun () ->
        let p =
          Pattern.expr ~decls:[ ("addr", Pattern.Any) ] "WAIT_FOR_DB_FULL(addr)"
        in
        match Pattern.match_expr p (e "WAIT_FOR_DB_FULL(x + 1)") with
        | Some b ->
          Alcotest.(check string) "bound" "x + 1"
            (Pp.expr_to_string (Option.get (Binding.find b "addr")))
        | None -> Alcotest.fail "expected a match");
    t "repeated wildcard must agree" `Quick (fun () ->
        let p = Pattern.expr ~decls:[ ("x", Pattern.Any) ] "f(x, x)" in
        Alcotest.(check bool) "same" true (matches p (e "f(a + 1, a + 1)"));
        Alcotest.(check bool) "different" false (matches p (e "f(a, b)")));
    t "constants in patterns are literal" `Quick (fun () ->
        let p =
          Pattern.expr ~decls:[ ("k", Pattern.Any) ]
            "PI_SEND(F_DATA, k, 0, 0, 1, 0)"
        in
        Alcotest.(check bool) "exact" true
          (matches p (e "PI_SEND(F_DATA, 9, 0, 0, 1, 0)"));
        Alcotest.(check bool) "different flag" false
          (matches p (e "PI_SEND(F_NODATA, 9, 0, 0, 1, 0)")));
    t "assignment pattern with field path" `Quick (fun () ->
        let p = Pattern.expr "HANDLER_GLOBALS(header.nh.len) = LEN_NODATA" in
        Alcotest.(check bool) "match" true
          (matches p (e "HANDLER_GLOBALS(header.nh.len) = LEN_NODATA"));
        Alcotest.(check bool) "other constant" false
          (matches p (e "HANDLER_GLOBALS(header.nh.len) = LEN_WORD"));
        Alcotest.(check bool) "other field" false
          (matches p (e "HANDLER_GLOBALS(header.nh.type) = LEN_NODATA")));
    t "alternation is ordered" `Quick (fun () ->
        let p =
          Pattern.alt [ Pattern.expr "a()"; Pattern.expr "b()" ]
        in
        Alcotest.(check bool) "first" true (matches p (e "a()"));
        Alcotest.(check bool) "second" true (matches p (e "b()"));
        Alcotest.(check bool) "neither" false (matches p (e "c()")));
    t "scalar wildcard rejects structs when typed" `Quick (fun () ->
        let p = Pattern.expr ~decls:[ ("v", Pattern.Scalar) ] "use(v)" in
        let ok =
          annotated "struct s { int f; }; struct s g; void use(long x);"
            "use(g.f)"
        in
        Alcotest.(check bool) "int field is scalar" true (matches p ok));
    t "floating wildcard needs float type" `Quick (fun () ->
        let p = Pattern.expr ~decls:[ ("v", Pattern.Floating) ] "use(v)" in
        let fl = annotated "double d; void use(double x);" "use(d)" in
        let it = annotated "int i; void use(long x);" "use(i)" in
        Alcotest.(check bool) "double matches" true (matches p fl);
        Alcotest.(check bool) "int does not" false (matches p it));
    t "constant wildcard" `Quick (fun () ->
        let p = Pattern.expr ~decls:[ ("k", Pattern.Constant) ] "f(k)" in
        Alcotest.(check bool) "literal" true (matches p (e "f(42)"));
        Alcotest.(check bool) "expression" false (matches p (e "f(x)")));
    t "find_all returns evaluation order" `Quick (fun () ->
        let p = Pattern.expr ~decls:[ ("x", Pattern.Any) ] "g(x)" in
        let hits = Pattern.find_all p (e "f(g(1), g(2)) + g(3)") in
        let args =
          List.map
            (fun (_, b) -> Pp.expr_to_string (Option.get (Binding.find b "x")))
            hits
        in
        Alcotest.(check (list string)) "order" [ "1"; "2"; "3" ] args);
    t "occurs looks inside subexpressions" `Quick (fun () ->
        let p = Pattern.expr "FREE_DB()" in
        Alcotest.(check bool) "nested" true
          (Pattern.find_all p (e "x = 1 + f(FREE_DB(), 2)") <> []));
    t "call helper matches any args" `Quick (fun () ->
        let p = Pattern.call "NI_SEND" ~arity:6 in
        Alcotest.(check bool) "match" true
          (matches p (e "NI_SEND(1, 2, 3, 4, 5, 6)")));
    t "bad pattern raises" `Quick (fun () ->
        match Pattern.expr "f(" with
        | exception Pattern.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected Parse_error");
  ]

let suite = ("pattern", cases)
