(** Type-language and type-annotation tests. *)

let t = Alcotest.test_case

let ctype_cases =
  [
    t "sizeof basics" `Quick (fun () ->
        Alcotest.(check int) "char" 1 (Ctype.sizeof Ctype.Char);
        Alcotest.(check int) "int" 4 (Ctype.sizeof Ctype.Int);
        Alcotest.(check int) "double" 8 (Ctype.sizeof Ctype.Double);
        Alcotest.(check int) "ptr" 4 (Ctype.sizeof (Ctype.Ptr Ctype.Long));
        Alcotest.(check int) "array" 16
          (Ctype.sizeof (Ctype.Array (Ctype.Int, Some 4))));
    t "classification" `Quick (fun () ->
        Alcotest.(check bool) "float floating" true
          (Ctype.is_floating Ctype.Float);
        Alcotest.(check bool) "int not floating" false
          (Ctype.is_floating Ctype.Int);
        Alcotest.(check bool) "enum integer" true
          (Ctype.is_integer (Ctype.Enum "e"));
        Alcotest.(check bool) "uint unsigned" true
          (Ctype.is_unsigned Ctype.Uint);
        Alcotest.(check bool) "ptr scalar" true
          (Ctype.is_scalar (Ctype.Ptr Ctype.Void));
        Alcotest.(check bool) "struct not scalar" false
          (Ctype.is_scalar (Ctype.Struct "s")));
    t "join promotes" `Quick (fun () ->
        Alcotest.(check string) "int+double" "double"
          (Ctype.to_string (Ctype.join Ctype.Int Ctype.Double));
        Alcotest.(check string) "char+int" "int"
          (Ctype.to_string (Ctype.join Ctype.Char Ctype.Int));
        Alcotest.(check string) "uint+int" "unsigned"
          (Ctype.to_string (Ctype.join Ctype.Uint Ctype.Int));
        Alcotest.(check string) "long+uint" "unsigned long"
          (Ctype.to_string (Ctype.join Ctype.Long Ctype.Uint)));
    t "equality is structural" `Quick (fun () ->
        Alcotest.(check bool) "ptr equal" true
          (Ctype.equal (Ctype.Ptr Ctype.Int) (Ctype.Ptr Ctype.Int));
        Alcotest.(check bool) "array len matters" false
          (Ctype.equal
             (Ctype.Array (Ctype.Int, Some 2))
             (Ctype.Array (Ctype.Int, Some 3))));
  ]

(* typecheck annotation tests *)
let inferred_type_in src expr_text =
  let tu =
    Parsed.ok
      (Frontend.parse
         ~file:"t.c" (src ^ "\nvoid probe(void) { sink = " ^ expr_text ^ "; }"))
  in
  let result = ref None in
  List.iter
    (fun (f : Ast.func) ->
      if f.Ast.f_name = "probe" then
        List.iter
          (fun s ->
            Ast.iter_stmt_exprs
              (fun e ->
                match e.Ast.edesc with
                | Ast.Assign (_, rhs) -> result := rhs.Ast.ety
                | _ -> ())
              s)
          f.Ast.f_body)
    (Ast.functions tu);
  match !result with
  | Some ty -> Ctype.to_string ty
  | None -> "<none>"

let typecheck_cases =
  [
    t "int literal" `Quick (fun () ->
        Alcotest.(check string) "42" "int"
          (inferred_type_in "long sink;" "42"));
    t "float literal" `Quick (fun () ->
        Alcotest.(check string) "1.5" "double"
          (inferred_type_in "double sink;" "1.5"));
    t "global variable type" `Quick (fun () ->
        Alcotest.(check string) "g" "unsigned long"
          (inferred_type_in "unsigned long g; long sink;" "g"));
    t "struct field through global" `Quick (fun () ->
        Alcotest.(check string) "h.len" "int"
          (inferred_type_in
             "struct hdr { int len; }; struct hdr h; long sink;" "h.len"));
    t "typedef resolves" `Quick (fun () ->
        Alcotest.(check string) "u32 var" "unsigned long"
          (inferred_type_in "typedef unsigned long u32; u32 v; long sink;" "v"));
    t "mixed arithmetic promotes to float" `Quick (fun () ->
        Alcotest.(check string) "i + f" "double"
          (inferred_type_in "int i; double f; double sink;" "i + f"));
    t "comparison yields int" `Quick (fun () ->
        Alcotest.(check string) "f < g" "int"
          (inferred_type_in "double f; double g; int sink;" "f < g"));
    t "function return type" `Quick (fun () ->
        Alcotest.(check string) "call" "long"
          (inferred_type_in "long get(void); long sink;" "get()"));
    t "pointer deref" `Quick (fun () ->
        Alcotest.(check string) "*p" "long"
          (inferred_type_in "long *p; long sink;" "*p"));
    t "array index" `Quick (fun () ->
        Alcotest.(check string) "a[0]" "int"
          (inferred_type_in "int a[4]; int sink;" "a[0]"));
    t "locals shadow globals" `Quick (fun () ->
        let tu =
          Parsed.ok
            (Frontend.parse ~file:"t.c"
               "double x;\nvoid f(void) { int x; x = 1; }")
        in
        let found = ref "<none>" in
        List.iter
          (fun (f : Ast.func) ->
            List.iter
              (fun s ->
                Ast.iter_stmt_exprs
                  (fun e ->
                    Ast.iter_expr
                      (fun e ->
                        match (e.Ast.edesc, e.Ast.ety) with
                        | Ast.Ident "x", Some ty ->
                          found := Ctype.to_string ty
                        | _ -> ())
                      e)
                  s)
              f.Ast.f_body)
          (Ast.functions tu);
        Alcotest.(check string) "local type wins" "int" !found);
  ]

let suite = ("ctype+typecheck", ctype_cases @ typecheck_cases)
