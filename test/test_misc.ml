(** Smaller units: locations, diagnostics, call graphs, suppression,
    metrics, tables, and the experiment drivers. *)

let t = Alcotest.test_case

let loc_cases =
  [
    t "compare orders by file, line, col" `Quick (fun () ->
        let mk f l c = Loc.make ~file:f ~line:l ~col:c in
        Alcotest.(check bool) "file first" true
          (Loc.compare (mk "a.c" 9 9) (mk "b.c" 1 1) < 0);
        Alcotest.(check bool) "then line" true
          (Loc.compare (mk "a.c" 1 9) (mk "a.c" 2 1) < 0);
        Alcotest.(check bool) "then col" true
          (Loc.compare (mk "a.c" 1 1) (mk "a.c" 1 2) < 0);
        Alcotest.(check bool) "equal" true
          (Loc.equal (mk "a.c" 1 1) (mk "a.c" 1 1)));
    t "none prints specially" `Quick (fun () ->
        Alcotest.(check string) "none" "<no location>"
          (Loc.to_string Loc.none));
  ]

let diag_cases =
  [
    t "normalize sorts and dedups" `Quick (fun () ->
        let mk line msg =
          Diag.make ~checker:"c"
            ~loc:(Loc.make ~file:"f.c" ~line ~col:1)
            ~func:"g" msg
        in
        let ds = [ mk 5 "b"; mk 1 "a"; mk 5 "b"; mk 3 "c" ] in
        let out = Diag.normalize ds in
        Alcotest.(check int) "deduped" 3 (List.length out);
        Alcotest.(check (list int)) "sorted"
          [ 1; 3; 5 ]
          (List.map (fun d -> d.Diag.loc.Loc.line) out));
    t "severity defaults to error" `Quick (fun () ->
        let e =
          Diag.make ~checker:"c" ~loc:Loc.none ~func:"f" "err"
        in
        let w =
          Diag.make ~severity:Diag.Warning ~checker:"c" ~loc:Loc.none
            ~func:"f" "warn"
        in
        Alcotest.(check (list string)) "severities" [ "error"; "warning" ]
          (List.map
             (fun d -> Diag.severity_string d.Diag.severity)
             [ e; w ]));
  ]

let callgraph_cases =
  [
    t "call sites in order" `Quick (fun () ->
        let tu =
          Parsed.ok
            (Frontend.parse ~file:"t.c"
               "void a(void); void b(void);\n\
                void f(void) { a(); if (x) { b(); } a(); }")
        in
        let cg = Callgraph.build [ tu ] in
        Alcotest.(check (list string)) "sites" [ "a"; "b"; "a" ]
          (List.map (fun s -> s.Callgraph.cs_callee) (Callgraph.callees cg "f")));
    t "reachability is transitive" `Quick (fun () ->
        let tu =
          Parsed.ok
            (Frontend.parse ~file:"t.c"
               "void c(void) { }\nvoid b(void) { c(); }\nvoid a(void) { b(); }\n\
                void unrelated(void) { }")
        in
        let cg = Callgraph.build [ tu ] in
        Alcotest.(check (list string)) "reach" [ "a"; "b"; "c" ]
          (Callgraph.reachable_from cg [ "a" ]));
    t "reachability terminates on mutual recursion" `Quick (fun () ->
        let tu =
          Parsed.ok
            (Frontend.parse ~file:"t.c"
               "void even(void); void odd(void) { even(); }\n\
                void even(void) { odd(); }\nvoid leaf(void) { }")
        in
        let cg = Callgraph.build [ tu ] in
        Alcotest.(check (list string)) "reach" [ "even"; "odd" ]
          (Callgraph.reachable_from cg [ "odd" ]));
    t "call sites come from the last definition" `Quick (fun () ->
        let tu file src = Parsed.ok (Frontend.parse ~file src) in
        let cg =
          Callgraph.build
            [
              tu "a.c" "void f(void) { a(); }";
              tu "b.c" "void f(void) { b(); c(); }";
            ]
        in
        Alcotest.(check (list string)) "sites" [ "b"; "c" ]
          (List.map (fun s -> s.Callgraph.cs_callee) (Callgraph.callees cg "f")));
  ]

let suppress_cases =
  [
    t "used vs unused annotations" `Quick (fun () ->
        let s = Suppress.create ~reserved:[ "has_buffer" ] in
        let a = Suppress.record s ~name:"has_buffer" ~loc:Loc.none ~func:"f" in
        let _b = Suppress.record s ~name:"has_buffer" ~loc:Loc.none ~func:"g" in
        Suppress.mark_used a;
        Alcotest.(check int) "useful" 1 (List.length (Suppress.useful s));
        Alcotest.(check int) "unused" 1 (List.length (Suppress.unused s)));
  ]

let table_cases =
  [
    t "table renders aligned columns" `Quick (fun () ->
        let rendered =
          Table.render
            (Table.make ~title:"T" ~header:[ "name"; "n" ]
               [ [ "a"; "1" ]; [ "long-name"; "20" ] ])
        in
        Alcotest.(check bool) "has title" true
          (String.length rendered > 0
          && String.sub rendered 0 1 = "T");
        (* every line has the same width for the name column *)
        let lines = String.split_on_char '\n' rendered in
        Alcotest.(check bool) "several lines" true (List.length lines >= 4));
    t "experiment tables produce a row per protocol" `Slow (fun () ->
        let corpus = Corpus.generate () in
        let t1 = Experiments.table1 corpus in
        Alcotest.(check int) "6 rows" 6 (List.length t1.Table.rows);
        let t7 = Experiments.table7 corpus in
        Alcotest.(check int) "9 checkers + total" 10
          (List.length t7.Table.rows));
  ]

let metrics_cases =
  [
    t "LOC counts non-blank lines" `Quick (fun () ->
        Alcotest.(check int) "count" 3
          (Frontend.loc_count "a\n\n  b\n\nc\n"));
    t "path statistics aggregate functions" `Quick (fun () ->
        (* what Table 1 computes per protocol *)
        let src = "void f(void) { a = 1; }\nvoid g(void) { if (x) { b = 2; } }" in
        let tu = Parsed.ok (Frontend.parse ~file:"m.c" src) in
        let agg =
          Paths.aggregate
            (List.map
               (fun f -> Paths.analyze (Cfg.build f))
               (Ast.functions tu))
        in
        Alcotest.(check int) "paths" 3 agg.Paths.paths;
        Alcotest.(check bool) "loc positive" true (Frontend.loc_count src > 0));
  ]

let rng_cases =
  [
    t "rng is deterministic per seed" `Quick (fun () ->
        let a = Rng.create ~seed:7 in
        let b = Rng.create ~seed:7 in
        let xs = List.init 20 (fun _ -> Rng.int a 1000) in
        let ys = List.init 20 (fun _ -> Rng.int b 1000) in
        Alcotest.(check (list int)) "equal streams" xs ys);
    t "range respects bounds" `Quick (fun () ->
        let rng = Rng.create ~seed:1 in
        for _ = 1 to 200 do
          let v = Rng.range rng 3 9 in
          if v < 3 || v > 9 then Alcotest.fail "out of range"
        done);
    t "different seeds give different streams" `Quick (fun () ->
        let a = Rng.create ~seed:7 in
        let b = Rng.create ~seed:8 in
        let xs = List.init 10 (fun _ -> Rng.int a 1_000_000) in
        let ys = List.init 10 (fun _ -> Rng.int b 1_000_000) in
        Alcotest.(check bool) "different" false (xs = ys));
  ]

let suite =
  ( "misc",
    loc_cases @ diag_cases @ callgraph_cases @ suppress_cases @ table_cases
    @ metrics_cases @ rng_cases )
