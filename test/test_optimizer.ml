(** The redundant-synchronisation optimiser: removals are exactly the
    provably redundant waits, and never change what the race checker
    accepts. *)

let t = Alcotest.test_case

let spec =
  {
    Flash_api.p_name = "test";
    p_handlers =
      [
        {
          Flash_api.h_name = "H";
          h_kind = Flash_api.Hw_handler;
          h_lane_allowance = [| 1; 1; 1; 1 |];
          h_no_stack = false;
        };
      ];
    p_free_funcs = [];
    p_use_funcs = [];
    p_cond_free_funcs = [];
  }

let parse src =
  Parsed.ok (Frontend.parse_strings [ ("t.c", Prelude.text ^ src) ])

let waits tus = Cutil.count_calls tus [ Flash_api.wait_for_db_full ]

let optimize src =
  let tus, report = Optimizer.optimize (parse src) in
  (tus, report)

let cases =
  [
    t "back-to-back waits: the second goes" `Quick (fun () ->
        let tus, report =
          optimize
            "void H(void) { long a; WAIT_FOR_DB_FULL(a); \
             WAIT_FOR_DB_FULL(a); a = MISCBUS_READ_DB(a, 0); FREE_DB(); }"
        in
        Alcotest.(check int) "removed" 1 report.Optimizer.waits_removed;
        Alcotest.(check int) "one left" 1 (waits tus));
    t "a single wait is kept" `Quick (fun () ->
        let _, report =
          optimize
            "void H(void) { long a; WAIT_FOR_DB_FULL(a); a = \
             MISCBUS_READ_DB(a, 0); FREE_DB(); }"
        in
        Alcotest.(check int) "removed" 0 report.Optimizer.waits_removed);
    t "wait reachable unsynchronised is kept" `Quick (fun () ->
        (* only one branch waits early, so the late wait still guards the
           other path *)
        let _, report =
          optimize
            "void H(void) { long a; if (a) { WAIT_FOR_DB_FULL(a); } \
             WAIT_FOR_DB_FULL(a); a = MISCBUS_READ_DB(a, 0); FREE_DB(); }"
        in
        Alcotest.(check int) "removed" 0 report.Optimizer.waits_removed);
    t "wait after both arms waited is redundant" `Quick (fun () ->
        let tus, report =
          optimize
            "void H(void) { long a; if (a) { WAIT_FOR_DB_FULL(a); x = 1; } \
             else { WAIT_FOR_DB_FULL(a); x = 2; } WAIT_FOR_DB_FULL(a); a = \
             MISCBUS_READ_DB(a, 0); FREE_DB(); }"
        in
        Alcotest.(check int) "removed" 1 report.Optimizer.waits_removed;
        Alcotest.(check int) "two left" 2 (waits tus));
    t "independent functions optimised independently" `Quick (fun () ->
        let _, report =
          optimize
            "void H(void) { long a; WAIT_FOR_DB_FULL(a); \
             WAIT_FOR_DB_FULL(a); FREE_DB(); }\n\
             void util(void) { long a; WAIT_FOR_DB_FULL(a); }"
        in
        Alcotest.(check int) "only the redundant one" 1
          report.Optimizer.waits_removed;
        Alcotest.(check int) "one function changed" 1
          report.Optimizer.functions_changed);
    t "golden protocol has no redundant waits" `Quick (fun () ->
        let tus = Golden.program Golden.Clean in
        let _, report = Optimizer.optimize tus in
        Alcotest.(check int) "nothing to shave" 0
          report.Optimizer.waits_removed);
  ]

(* safety: optimisation never changes the race checker's verdict *)
let random_src seed =
  let rng = Rng.create ~seed in
  let g = Skeletons.gctx ~rng ~flavor:Skeletons.Bitvector in
  for _ = 1 to 3 do
    ignore (Skeletons.fresh_local g)
  done;
  let bug = if Rng.bool rng then Skeletons.Race_read else Skeletons.No_bug in
  let body =
    Skeletons.reply_receive_body g ~bug ~pad:(Rng.range rng 1 6)
      ~branches:(Rng.range rng 0 3) ~reads:2
  in
  (* sprinkle extra waits to create removable redundancy *)
  let extra = [ Cb.wait_db (Cb.id "addr"); Cb.wait_db (Cb.id "addr") ] in
  let decls = List.rev_map (fun v -> Cb.decl_long v) g.Skeletons.locals in
  let f =
    Cb.func "H"
      ([ Cb.decl_long "addr"; Cb.decl_long "src" ] @ decls @ body @ extra)
  in
  Pp.tunit_to_string { Ast.tu_file = "t.c"; tu_globals = [ Ast.Gfunc f ] }

let site_set diags =
  List.sort_uniq compare
    (List.map (fun (d : Diag.t) -> (d.Diag.loc, d.Diag.message)) diags)

let prop_optimize_preserves_verdict =
  QCheck.Test.make
    ~name:"optimisation preserves the race checker's diagnostics" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let tus = parse (random_src seed) in
      let before = Checks.run Buffer_race.name ~spec tus in
      let optimized, _ = Optimizer.optimize tus in
      let after = Checks.run Buffer_race.name ~spec optimized in
      site_set before = site_set after)

let suite =
  ( "optimizer",
    cases @ [ QCheck_alcotest.to_alcotest prop_optimize_preserves_verdict ] )
