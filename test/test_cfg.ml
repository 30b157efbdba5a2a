(** Control-flow graph construction and path-statistics tests. *)

let t = Alcotest.test_case

let cfg_of src =
  let tu = Parsed.ok (Frontend.parse ~file:"t.c" src) in
  match Ast.functions tu with
  | [ f ] -> Cfg.build f
  | _ -> Alcotest.fail "expected exactly one function"

let paths_of src = (Paths.analyze (cfg_of src)).Paths.n_paths

let structure_cases =
  [
    t "straight line has one path" `Quick (fun () ->
        Alcotest.(check int) "paths" 1
          (paths_of "void f(void) { a = 1; b = 2; c = 3; }"));
    t "if adds a path" `Quick (fun () ->
        Alcotest.(check int) "paths" 2
          (paths_of "void f(void) { if (a) b = 1; c = 2; }"));
    t "if-else two paths" `Quick (fun () ->
        Alcotest.(check int) "paths" 2
          (paths_of "void f(void) { if (a) b = 1; else b = 2; }"));
    t "sequential ifs multiply" `Quick (fun () ->
        Alcotest.(check int) "paths" 8
          (paths_of
             "void f(void) { if (a) x = 1; if (b) x = 2; if (c) x = 3; }"));
    t "early return adds one path, not a product" `Quick (fun () ->
        (* return path (1) + fall-through into the if-else (2) *)
        Alcotest.(check int) "paths" 3
          (paths_of
             "void f(void) { if (a) { return; } if (b) { x(); } else { y(); } }"));
    t "while loop: acyclic paths" `Quick (fun () ->
        (* enter-once-or-skip under the back-edge-cut convention *)
        Alcotest.(check int) "paths" 2
          (paths_of "void f(void) { while (a) { b = b + 1; } c = 1; }"));
    t "do-while single body pass" `Quick (fun () ->
        Alcotest.(check int) "paths" 1
          (paths_of "void f(void) { do { b = 1; } while (a); }"));
    t "for loop like while" `Quick (fun () ->
        Alcotest.(check int) "paths" 2
          (paths_of "void f(void) { for (i = 0; i < 4; i++) { b = i; } }"));
    t "switch fans out per case" `Quick (fun () ->
        Alcotest.(check int) "paths" 3
          (paths_of
             "void f(void) { switch (x) { case 1: a(); break; case 2: b(); \
              break; default: c(); } }"));
    t "switch fall-through still covered" `Quick (fun () ->
        Alcotest.(check int) "paths" 3
          (paths_of
             "void f(void) { switch (x) { case 1: a(); case 2: b(); break; \
              default: c(); } }"));
    t "switch without default can skip" `Quick (fun () ->
        Alcotest.(check int) "paths" 2
          (paths_of "void f(void) { switch (x) { case 1: a(); break; } y(); }"));
    t "break exits the loop" `Quick (fun () ->
        Alcotest.(check int) "paths" 3
          (paths_of
             "void f(void) { while (a) { if (b) { break; } c(); } d(); }"));
    t "continue returns to the head" `Quick (fun () ->
        let cfg =
          cfg_of
            "void f(void) { while (a) { if (b) { continue; } c(); } d(); }"
        in
        Alcotest.(check bool) "has a back edge" true
          (Cfg.back_edges cfg <> []));
    t "goto forward" `Quick (fun () ->
        Alcotest.(check int) "paths" 2
          (paths_of
             "void f(void) { if (a) { goto out; } b(); out: c(); }"));
    t "goto backward forms a loop" `Quick (fun () ->
        let cfg =
          cfg_of "void f(void) { top: a(); if (b) { goto top; } c(); }"
        in
        Alcotest.(check bool) "has a back edge" true
          (Cfg.back_edges cfg <> []));
    t "return edges reach exit" `Quick (fun () ->
        let cfg =
          cfg_of "void f(void) { if (a) { return; } b(); return; }"
        in
        let returns =
          Array.to_list cfg.Cfg.nodes
          |> List.filter (fun n ->
                 match n.Cfg.kind with Cfg.Return _ -> true | _ -> false)
        in
        Alcotest.(check int) "two returns" 2 (List.length returns);
        List.iter
          (fun (n : Cfg.node) ->
            Alcotest.(check bool) "return flows to exit" true
              (List.exists (fun (_, s) -> s = cfg.Cfg.exit) n.Cfg.succs))
          returns);
  ]

(* well-formedness invariants, checked over randomly generated handlers *)
let well_formed (cfg : Cfg.t) : bool =
  let n = Cfg.n_nodes cfg in
  let ok = ref true in
  Array.iter
    (fun (node : Cfg.node) ->
      List.iter
        (fun (_, s) ->
          if s < 0 || s >= n then ok := false
          else if not (List.mem node.Cfg.id (Cfg.node cfg s).Cfg.preds) then
            ok := false)
        node.Cfg.succs)
    cfg.Cfg.nodes;
  (* exit is reachable from entry *)
  (if not (List.mem cfg.Cfg.exit (Cfg.reachable cfg)) then ok := false);
  !ok

let random_cfg seed =
  let rng = Rng.create ~seed in
  let g = Skeletons.gctx ~rng ~flavor:Skeletons.Rac in
  for _ = 1 to 3 do
    ignore (Skeletons.fresh_local g)
  done;
  let body =
    match Rng.int rng 4 with
    | 0 ->
      Skeletons.dir_consult_body g ~bug:Skeletons.No_bug
        ~pad:(Rng.range rng 1 6) ~branches:(Rng.range rng 0 3) ()
    | 1 ->
      Skeletons.uncached_body g ~bug:Skeletons.No_bug ~pad:(Rng.range rng 1 6)
        ~branches:(Rng.range rng 0 3) ~write:(Rng.bool rng) ()
    | 2 ->
      Skeletons.inval_body g ~bug:Skeletons.No_bug ~pad:(Rng.range rng 1 6)
        ~branches:(Rng.range rng 0 2) ()
    | _ ->
      Skeletons.proc_body g ~style:(Skeletons.P_switch (Rng.range rng 2 8))
        ~bug:Skeletons.No_bug ~pad:(Rng.range rng 2 10)
  in
  let decls = List.rev_map (fun v -> Cb.decl_long v) g.Skeletons.locals in
  Cfg.build
    (Cb.func "F" ([ Cb.decl_long "addr"; Cb.decl_long "src" ] @ decls @ body))

let prop_well_formed =
  QCheck.Test.make ~name:"random CFGs are well-formed" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed -> well_formed (random_cfg seed))

let prop_count_matches_enumeration =
  QCheck.Test.make
    ~name:"DP path count equals explicit enumeration (small CFGs)" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cfg = random_cfg seed in
      let stats = Paths.analyze cfg in
      if stats.Paths.n_paths > 5_000 then true
      else
        let listed = Paths.enumerate ~limit:6_000 cfg in
        List.length listed = stats.Paths.n_paths)

let prop_max_at_least_avg =
  QCheck.Test.make ~name:"max path length >= average" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let stats = Paths.analyze (random_cfg seed) in
      float_of_int stats.Paths.max_length
      >= (Paths.aggregate [ stats ]).Paths.avg_length)

let suite =
  ( "cfg+paths",
    structure_cases
    @ [
        QCheck_alcotest.to_alcotest prop_well_formed;
        QCheck_alcotest.to_alcotest prop_count_matches_enumeration;
        QCheck_alcotest.to_alcotest prop_max_at_least_avg;
      ] )
