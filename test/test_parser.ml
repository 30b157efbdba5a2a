(** Parser unit tests plus print/parse round-trip properties. *)

let t = Alcotest.test_case

let parse_expr s = Parsed.expr s
let show_expr e = Pp.expr_to_string e

let check_expr name src expected =
  t name `Quick (fun () ->
      Alcotest.(check string) name expected (show_expr (parse_expr src)))

let parse_unit src =
  Parsed.ok (Parser.parse_string_recovering ~file:"test.c" src)

let first_func src =
  match Ast.functions (parse_unit src) with
  | f :: _ -> f
  | [] -> Alcotest.fail "no function parsed"

let expr_cases =
  [
    (* precedence comes out in the explicit parentheses the printer adds *)
    check_expr "mul binds tighter" "1 + 2 * 3" "1 + (2 * 3)";
    check_expr "left assoc minus" "1 - 2 - 3" "(1 - 2) - 3";
    check_expr "shift vs plus" "a << 2 + 1" "a << (2 + 1)";
    check_expr "cmp vs bitand" "a & b == c" "a & (b == c)";
    check_expr "logic chain" "a && b || c && d" "(a && b) || (c && d)";
    check_expr "assign right assoc" "a = b = c" "a = b = c";
    check_expr "op-assign" "a += b * 2" "a += (b * 2)";
    check_expr "ternary" "a ? b : c ? d : e" "a ? b : (c ? d : e)";
    check_expr "unary minus" "-a * b" "(-a) * b";
    check_expr "deref field" "(*p).f" "(*p).f";
    check_expr "arrow chain" "p->q->r" "p->q->r";
    check_expr "index call" "f(x)[2]" "f(x)[2]";
    check_expr "nested call" "g(f(1, 2), 3)" "g(f(1, 2), 3)";
    check_expr "cast" "(long)x + 1" "((long)x) + 1";
    check_expr "sizeof type" "sizeof(int)" "sizeof(int)";
    check_expr "sizeof expr" "sizeof(a + b)" "sizeof(a + b)";
    check_expr "address of" "&x" "&x";
    check_expr "comma" "a, b" "a, b";
    check_expr "string concat" "\"a\" \"b\"" "\"ab\"";
  ]

let stmt_cases =
  [
    t "if-else dangling binds to nearest" `Quick (fun () ->
        let f =
          first_func
            "void f(void) { if (a) if (b) x = 1; else x = 2; }"
        in
        match f.Ast.f_body with
        | [ { Ast.sdesc = Ast.Sif (_, then_s, None); _ } ] -> (
          match then_s.Ast.sdesc with
          | Ast.Sif (_, _, Some _) -> ()
          | _ -> Alcotest.fail "inner if should carry the else")
        | _ -> Alcotest.fail "outer if should have no else");
    t "for loop with decl" `Quick (fun () ->
        let f = first_func "void f(void) { for (int i = 0; i < 3; i++) x++; }" in
        match f.Ast.f_body with
        | [ { Ast.sdesc = Ast.Sfor (Some (Ast.Fi_decl d), Some _, Some _, _); _ } ]
          ->
          Alcotest.(check string) "loop var" "i" d.Ast.v_name
        | _ -> Alcotest.fail "expected a for statement");
    t "switch with cases" `Quick (fun () ->
        let f =
          first_func
            "void f(void) { switch (x) { case 1: a(); break; default: b(); } }"
        in
        match f.Ast.f_body with
        | [ { Ast.sdesc = Ast.Sswitch (_, body); _ } ] -> (
          match body.Ast.sdesc with
          | Ast.Sblock stmts ->
            let cases =
              List.filter
                (fun s ->
                  match s.Ast.sdesc with
                  | Ast.Scase _ | Ast.Sdefault -> true
                  | _ -> false)
                stmts
            in
            Alcotest.(check int) "labels" 2 (List.length cases)
          | _ -> Alcotest.fail "switch body should be a block")
        | _ -> Alcotest.fail "expected a switch");
    t "goto and label" `Quick (fun () ->
        let f = first_func "void f(void) { goto out; x = 1; out: y = 2; }" in
        let gotos = ref 0 and labels = ref 0 in
        List.iter
          (fun s ->
            Ast.iter_stmt
              (fun s ->
                match s.Ast.sdesc with
                | Ast.Sgoto _ -> incr gotos
                | Ast.Slabel _ -> incr labels
                | _ -> ())
              s)
          f.Ast.f_body;
        Alcotest.(check int) "gotos" 1 !gotos;
        Alcotest.(check int) "labels" 1 !labels);
    t "multi-declarator locals split" `Quick (fun () ->
        let f = first_func "void f(void) { int a = 1, b, c = 3; }" in
        let decls = ref [] in
        List.iter
          (fun s ->
            Ast.iter_stmt
              (fun s ->
                match s.Ast.sdesc with
                | Ast.Sdecl d -> decls := d.Ast.v_name :: !decls
                | _ -> ())
              s)
          f.Ast.f_body;
        Alcotest.(check (list string)) "names" [ "a"; "b"; "c" ]
          (List.rev !decls));
    t "adjacent strings concatenate; a string then a name is an error"
      `Quick (fun () ->
        (match
           (Parsed.expr "f(\"ab\" \"c\")").Ast.edesc
         with
        | Ast.Call (_, [ { Ast.edesc = Ast.Str_lit s; _ } ]) ->
          Alcotest.(check string) "concatenated" "abc" s
        | _ -> Alcotest.fail "expected a call with one string");
        (* the name's payload is a symbol id, not a literal index *)
        let _, diags =
          Parser.parse_string_recovering
            "void f(void) { g(\"a\" name_seen_nowhere_else); }"
        in
        match diags with
        | d :: _ ->
          Alcotest.(check string) "message"
            "expected ) (found name_seen_nowhere_else)" d.Diag.message
        | [] -> Alcotest.fail "expected a parse diagnostic");
  ]

let global_cases =
  [
    t "typedef introduces a type name" `Quick (fun () ->
        let tu =
          parse_unit "typedef unsigned long u64;\nvoid f(void) { u64 x; }"
        in
        match Ast.functions tu with
        | [ f ] -> (
          match f.Ast.f_body with
          | [ { Ast.sdesc = Ast.Sdecl d; _ } ] ->
            Alcotest.(check string) "type" "u64"
              (Ctype.to_string d.Ast.v_type)
          | _ -> Alcotest.fail "expected one declaration")
        | _ -> Alcotest.fail "expected one function");
    t "struct definition parsed" `Quick (fun () ->
        let tu = parse_unit "struct hdr { int len; long addr; };" in
        match tu.Ast.tu_globals with
        | [ Ast.Gstruct ("hdr", fields, _) ] ->
          Alcotest.(check int) "fields" 2 (List.length fields)
        | _ -> Alcotest.fail "expected a struct definition");
    t "enum values assigned" `Quick (fun () ->
        let tu = parse_unit "enum e { A = 3, B, C = 10 };" in
        match tu.Ast.tu_globals with
        | [ Ast.Genum ("e", items, _) ] ->
          Alcotest.(check (list (pair string (option int))))
            "items"
            [ ("A", Some 3); ("B", None); ("C", Some 10) ]
            items
        | _ -> Alcotest.fail "expected an enum");
    t "prototype vs definition" `Quick (fun () ->
        let tu = parse_unit "int g(int a);\nint g(int a) { return a; }" in
        let protos =
          List.filter
            (function Ast.Gfunc_decl _ -> true | _ -> false)
            tu.Ast.tu_globals
        in
        Alcotest.(check int) "one prototype" 1 (List.length protos);
        Alcotest.(check int) "one definition" 1
          (List.length (Ast.functions tu)));
    t "static function flag" `Quick (fun () ->
        let f = first_func "static void f(void) { }" in
        Alcotest.(check bool) "static" true f.Ast.f_static);
    t "pointer declarator" `Quick (fun () ->
        let tu = parse_unit "char *name;" in
        match tu.Ast.tu_globals with
        | [ Ast.Gvar d ] ->
          Alcotest.(check bool) "is pointer" true
            (Ctype.is_pointer d.Ast.v_type)
        | _ -> Alcotest.fail "expected a global");
    t "array of pointers declarator" `Quick (fun () ->
        let tu = parse_unit "long *table[8];" in
        match tu.Ast.tu_globals with
        | [ Ast.Gvar { Ast.v_type = Ctype.Array (Ctype.Ptr Ctype.Long, Some 8); _ } ]
          ->
          ()
        | _ -> Alcotest.fail "expected long *[8]");
    t "a function's source digest covers exactly its text" `Quick
      (fun () ->
        let f_text = "static int f(int x)\n{\n\treturn x; /* } */\n}"
        and h_text = "void h() { }" in
        (* a broken global between them: recovery must not shift the
           spans of the functions around it *)
        let tu, diags =
          Parser.parse_string_recovering ~file:"d.c"
            ("int g;\n\n  " ^ f_text ^ "\nint @ bad;\n" ^ h_text ^ "\n")
        in
        Alcotest.(check bool) "the bad global is reported" true (diags <> []);
        Alcotest.(check (list (option string)))
          "digests"
          [ Some (Digest.string f_text); Some (Digest.string h_text) ]
          (List.map (fun f -> f.Ast.f_src_digest) (Ast.functions tu));
        Alcotest.(check (option string)) "a rewritten body has none" None
          (Ast.with_body (first_func h_text) []).Ast.f_src_digest);
    t "parse error has a location" `Quick (fun () ->
        match
          Parser.parse_string_recovering ~file:"test.c" "void f(void) { if }"
        with
        | _, [ d ] ->
          Alcotest.(check string) "checker" "parse" d.Diag.checker;
          Alcotest.(check string) "file" "test.c" d.Diag.loc.Loc.file;
          Alcotest.(check bool) "line known" true (d.Diag.loc.Loc.line >= 1)
        | _, ds ->
          Alcotest.failf "expected one parse diagnostic, got %d"
            (List.length ds));
  ]

(* ------------------------------------------------------------------ *)
(* Round-trip property over randomly generated functions               *)
(* ------------------------------------------------------------------ *)

(* generate a random handler-like function with the corpus builder and
   check parse(print(f)) prints identically *)
let random_function seed : Ast.func =
  let rng = Rng.create ~seed in
  let g = Skeletons.gctx ~rng ~flavor:Skeletons.Bitvector in
  for _ = 1 to 3 do
    ignore (Skeletons.fresh_local g)
  done;
  let body =
    Skeletons.dir_consult_body g ~bug:Skeletons.No_bug
      ~pad:(Rng.range rng 2 10)
      ~branches:(Rng.range rng 0 3)
      ()
  in
  let decls =
    List.rev_map (fun v -> Cb.decl_long v) g.Skeletons.locals
  in
  Cb.func "Handler"
    ([ Cb.decl_long "addr"; Cb.decl_long "src" ] @ decls @ body)

let prop_roundtrip =
  QCheck.Test.make ~name:"print/parse round trip is stable" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let f = random_function seed in
      let printed =
        Pp.tunit_to_string { Ast.tu_file = "t.c"; tu_globals = [ Ast.Gfunc f ] }
      in
      let src = Prelude.text ^ printed in
      let tu = Parsed.ok (Parser.parse_string_recovering ~file:"t.c" src) in
      match Ast.find_function tu "Handler" with
      | None -> false
      | Some f2 ->
        let printed2 =
          Pp.tunit_to_string
            { Ast.tu_file = "t.c"; tu_globals = [ Ast.Gfunc f2 ] }
        in
        String.equal printed printed2)

let prop_corpus_reparses =
  QCheck.Test.make ~name:"every corpus file reparses to equal text" ~count:1
    QCheck.unit
    (fun () ->
      let corpus = Corpus.generate () in
      List.for_all
        (fun (p : Corpus.protocol) ->
          List.for_all
            (fun (file, src) ->
              let tu = Parsed.ok (Parser.parse_string_recovering ~file src) in
              (* printing then reparsing must preserve function count *)
              let n1 = List.length (Ast.functions tu) in
              let printed = Pp.tunit_to_string tu in
              let tu2 =
                Parsed.ok (Parser.parse_string_recovering ~file printed)
              in
              n1 = List.length (Ast.functions tu2))
            p.Corpus.files)
        corpus.Corpus.protocols)

let suite =
  ( "parser",
    expr_cases @ stmt_cases @ global_cases
    @ [
        QCheck_alcotest.to_alcotest prop_roundtrip;
        QCheck_alcotest.to_alcotest prop_corpus_reparses;
      ] )
