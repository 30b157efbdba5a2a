(** The hardened pipeline: parse recovery, crash-safe cache, fault
    barriers, budgets, dead workers, and the exit-code policy.

    The unit tests pin each containment tier directly; the qcheck
    properties are totality statements (a mutated source never crashes
    the front end, a mutated cache container never crashes the loader);
    the per-class mini-campaigns run the {!Faultinject} harness itself
    so its invariants — no uncaught exception, deterministic remainder —
    are exercised on every [dune runtest]. *)

let t = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* A small program with a known finding and a clean remainder           *)
(* ------------------------------------------------------------------ *)

let spec_for tus =
  {
    Flash_api.p_name = "robust";
    p_handlers =
      List.concat_map
        (fun tu ->
          List.filter_map
            (fun (f : Ast.func) ->
              if Ctype.equal f.Ast.f_ret Ctype.Void && f.Ast.f_params = []
              then
                Some
                  {
                    Flash_api.h_name = f.Ast.f_name;
                    h_kind = Flash_api.Hw_handler;
                    h_lane_allowance = [| 1; 1; 1; 1 |];
                    h_no_stack = false;
                  }
              else None)
            (Ast.functions tu))
        tus;
    p_free_funcs = [];
    p_use_funcs = [];
    p_cond_free_funcs = [];
  }

let leaky = "void leaky(void) {\n  long b;\n  b = ALLOCATE_BUF();\n}\n"

let clean =
  "void tidy(void) {\n  long b;\n  b = ALLOCATE_BUF();\n  FREE_BUF(b);\n}\n"

let parse_sources srcs =
  Frontend.parse_strings
    (List.map (fun (n, s) -> (n, Prelude.text ^ s)) srcs)

let func_names tus =
  List.concat_map
    (fun tu -> List.map (fun (f : Ast.func) -> f.Ast.f_name) (Ast.functions tu))
  tus
  |> List.sort String.compare

let render results =
  results
  |> List.concat_map (fun (name, ds) ->
         List.map (fun d -> name ^ "|" ^ Diag.to_string d) ds)
  |> List.sort String.compare

(* ------------------------------------------------------------------ *)
(* Exit-code policy                                                    *)
(* ------------------------------------------------------------------ *)

let test_classify () =
  let c u d f = Robust.classify ~usable:u ~degraded:d ~has_findings:f in
  Alcotest.(check int) "clean" 0 (Robust.exit_code (c true false false));
  Alcotest.(check int) "findings" 1 (Robust.exit_code (c true false true));
  Alcotest.(check int) "partial" 2 (Robust.exit_code (c true true false));
  (* partial takes precedence over findings *)
  Alcotest.(check int) "partial+findings" 2 (Robust.exit_code (c true true true));
  Alcotest.(check int) "unusable" 3 (Robust.exit_code (c false true true));
  Alcotest.(check bool) "internal diag" true
    (Robust.is_internal
       (Diag.make ~checker:"parse" ~loc:Loc.none ~func:"<f>" "x"));
  Alcotest.(check bool) "finding diag" false
    (Robust.is_internal
       (Diag.make ~checker:"buffer_mgmt" ~loc:Loc.none ~func:"<f>" "x"))

(* ------------------------------------------------------------------ *)
(* Parse recovery                                                      *)
(* ------------------------------------------------------------------ *)

let test_recovery_keeps_neighbours () =
  let garbage = "void broken(void) { long x; x = @#$ ;;; }\n" in
  let tus, diags = parse_sources [ ("r.c", clean ^ garbage ^ leaky) ] in
  let names = func_names tus in
  Alcotest.(check bool) "tidy survives" true (List.mem "tidy" names);
  Alcotest.(check bool) "leaky survives" true (List.mem "leaky" names);
  Alcotest.(check bool) "recovery reported" true (diags <> []);
  List.iter
    (fun (d : Diag.t) ->
      Alcotest.(check bool) "reported under lex/parse" true
        (Robust.is_internal d))
    diags;
  (* the surviving functions still check exactly as if alone *)
  let spec = spec_for tus in
  let recovered = Registry.run_all_product ~spec tus in
  let alone, _ = parse_sources [ ("r.c", clean ^ leaky) ] in
  let solo = Registry.run_all_product ~spec:(spec_for alone) alone in
  (* location-free comparison: the garbage region shifts line numbers
     below it, but checker, function, severity, and message survive *)
  let keys results =
    results
    |> List.concat_map (fun (n, ds) ->
           if List.mem n Robust.internal_checkers then []
           else List.map Diag.key ds)
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "remainder identical" (keys solo)
    (keys recovered)

let test_mdsl_error_located () =
  match Mdsl.parse "sm w {\n  decl { scalar } a;\n  start: ???\n}" with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Mdsl.Parse_error (_, loc) ->
    Alcotest.(check bool) "location attached" false (Loc.is_none loc);
    Alcotest.(check string) "file" "<metal>" loc.Loc.file

let prop_parse_total =
  QCheck.Test.make ~name:"mutated sources never crash the front end"
    ~count:200
    QCheck.(triple small_nat small_nat bool)
    (fun (at, len, truncate) ->
      let src = Prelude.text ^ clean ^ leaky in
      let at = at * 37 mod String.length src in
      let mutated =
        if truncate then String.sub src 0 at
        else
          String.sub src 0 at
          ^ String.init (1 + (len mod 7)) (fun i ->
                "@#${;)\"".[i mod 7])
          ^ String.sub src at (String.length src - at)
      in
      let tus, _ = Frontend.parse_strings [ ("m.c", mutated) ] in
      (* and the surviving remainder is checkable *)
      ignore (Registry.run_all_product ~spec:(spec_for tus) tus);
      true)

(* ------------------------------------------------------------------ *)
(* Crash-safe cache                                                    *)
(* ------------------------------------------------------------------ *)

let with_container f =
  let tus, _ = parse_sources [ ("c.c", clean ^ leaky) ] in
  let spec = spec_for tus in
  let cache = Mcd_cache.create () in
  let _ = Mcd.check_corpus ~cache ~jobs:1 ~spec tus in
  let path = Filename.temp_file "test_robust" ".cache" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Mcd_cache.save cache path;
      let ic = open_in_bin path in
      let data =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      f ~path ~data ~entries:(Mcd_cache.size cache))

let rewrite path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let test_cache_roundtrip () =
  with_container (fun ~path ~data:_ ~entries ->
      Alcotest.(check bool) "cache populated" true (entries > 0);
      Alcotest.(check int) "round-trip warm" entries
        (Mcd_cache.size (Mcd_cache.load path)))

let test_cache_corrupt_tail_cold () =
  with_container (fun ~path ~data ~entries:_ ->
      rewrite path (String.sub data 0 (String.length data - 3));
      Alcotest.(check int) "truncated tail loads cold" 0
        (Mcd_cache.size (Mcd_cache.load path)))

let test_cache_missing_cold () =
  Alcotest.(check int) "missing file loads cold" 0
    (Mcd_cache.size (Mcd_cache.load "/nonexistent/robust.cache"))

let prop_cache_corruption_total =
  QCheck.Test.make
    ~name:"a flipped or truncated cache container loads cold, never crashes"
    ~count:60
    QCheck.(pair small_nat bool)
    (fun (at, truncate) ->
      with_container (fun ~path ~data ~entries:_ ->
          let at = at * 131 mod String.length data in
          let mutated =
            if truncate then String.sub data 0 at
            else begin
              let b = Bytes.of_string data in
              Bytes.set b at
                (Char.chr (Char.code (Bytes.get b at) lxor 0xFF));
              Bytes.to_string b
            end
          in
          rewrite path mutated;
          (* never raises, and never pretends corrupt data is a hit *)
          Mcd_cache.size (Mcd_cache.load path) = 0))

(* ------------------------------------------------------------------ *)
(* Checker fault barrier                                               *)
(* ------------------------------------------------------------------ *)

let with_fault ~checker ~func f =
  Engine.set_fault_hook
    (Some (fun ~checker:c ~func:fn -> c = checker && fn = func));
  Fun.protect ~finally:(fun () -> Engine.set_fault_hook None) f

let test_fused_fault_isolated () =
  let tus, _ = parse_sources [ ("f.c", clean ^ leaky) ] in
  let spec = spec_for tus in
  let baseline = Registry.run_all_product ~spec tus in
  let faulted =
    with_fault ~checker:"buffer_mgmt" ~func:"tidy" (fun () ->
        Registry.run_all_product ~spec tus)
  in
  let internal = List.assoc_opt "internal" faulted in
  Alcotest.(check bool) "internal entry present" true (internal <> None);
  Alcotest.(check bool) "internal entry non-empty" true
    (Option.get internal <> []);
  (* leaky's finding is still there, verbatim *)
  let on_func fn results =
    results
    |> List.concat_map (fun (n, ds) ->
           if List.mem n Robust.internal_checkers then []
           else
             List.filter_map
               (fun (d : Diag.t) ->
                 if String.equal d.Diag.func fn then
                   Some (n ^ "|" ^ Diag.to_string d)
                 else None)
               ds)
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "other function untouched"
    (on_func "leaky" baseline) (on_func "leaky" faulted)

let test_mcd_fault_isolated () =
  let tus, _ = parse_sources [ ("f.c", clean ^ leaky) ] in
  let spec = spec_for tus in
  let baseline, _ = Mcd.check_corpus ~jobs:1 ~spec tus in
  let results, stats =
    with_fault ~checker:"buffer_mgmt" ~func:"tidy" (fun () ->
        Mcd.check_corpus ~jobs:2 ~spec tus)
  in
  Alcotest.(check bool) "unit reported faulted" true
    (stats.Mcd.units_faulted > 0);
  Alcotest.(check bool) "internal entry present" true
    (List.assoc_opt "internal" results <> None);
  let strip rs =
    List.filter (fun (n, _) -> not (List.mem n Robust.internal_checkers)) rs
  in
  (* everything except the faulted (checker, function) pair matches; the
     faulted pair degrades, so compare the other checkers wholesale *)
  let except_buffers rs =
    List.filter (fun (n, _) -> not (String.equal n "buffer_mgmt")) (strip rs)
  in
  Alcotest.(check (list string)) "other checkers byte-identical"
    (render (except_buffers baseline)) (render (except_buffers results))

let test_clean_path_unchanged () =
  let tus, _ = parse_sources [ ("f.c", clean ^ leaky) ] in
  let spec = spec_for tus in
  Alcotest.(check (list string)) "barrier leaves a clean run unchanged"
    (render (Registry.run_all ~spec tus))
    (render (Registry.run_all_product ~spec tus))

(* ------------------------------------------------------------------ *)
(* Budgets and dead workers                                            *)
(* ------------------------------------------------------------------ *)

let test_budget_exhaustion_contained () =
  let tus, _ = parse_sources [ ("b.c", clean ^ leaky) ] in
  let spec = spec_for tus in
  let results, stats =
    Mcd.check_corpus
      ~budget:{ Engine.fuel = Some 1; deadline_ms = None }
      ~jobs:1 ~spec tus
  in
  Alcotest.(check bool) "units faulted" true (stats.Mcd.units_faulted > 0);
  Alcotest.(check bool) "reported as internal" true
    (match List.assoc_opt "internal" results with
    | Some (_ :: _) -> true
    | _ -> false)

let test_ample_budget_is_noop () =
  let tus, _ = parse_sources [ ("b.c", clean ^ leaky) ] in
  let spec = spec_for tus in
  let plain, _ = Mcd.check_corpus ~jobs:1 ~spec tus in
  let budgeted, stats =
    Mcd.check_corpus
      ~budget:{ Engine.fuel = Some 1_000_000; deadline_ms = Some 60_000.0 }
      ~jobs:1 ~spec tus
  in
  Alcotest.(check int) "no unit faulted" 0 stats.Mcd.units_faulted;
  Alcotest.(check (list string)) "identical output" (render plain)
    (render budgeted)

let test_dead_worker_reclaimed () =
  let tus, _ = parse_sources [ ("w.c", clean ^ leaky) ] in
  let spec = spec_for tus in
  let baseline, _ = Mcd.check_corpus ~jobs:2 ~spec tus in
  (* every worker dies at its first claim; the coordinator sweep then
     owns the whole task list, so the re-claim path runs deterministically *)
  Mcd_pool.set_test_kill (Some (fun ~worker:_ ~task:_ -> true));
  let results, stats =
    Fun.protect
      ~finally:(fun () -> Mcd_pool.set_test_kill None)
      (fun () -> Mcd.check_corpus ~jobs:2 ~spec tus)
  in
  Alcotest.(check bool) "crash recorded" true (stats.Mcd.workers_crashed > 0);
  Alcotest.(check (list string)) "orphans re-claimed, output identical"
    (render baseline) (render results);
  (* the pool's domains outlive the crash: the next call is a clean one *)
  let after, stats = Mcd.check_corpus ~jobs:2 ~spec tus in
  Alcotest.(check int) "no crash on the next call" 0 stats.Mcd.workers_crashed;
  Alcotest.(check (list string)) "the next call's output" (render baseline)
    (render after)

(* ------------------------------------------------------------------ *)
(* The harness turned on itself: one mini-campaign per class            *)
(* ------------------------------------------------------------------ *)

let test_campaign klass () =
  let s = Faultinject.campaign ~count:24 ~classes:[ klass ] () in
  List.iter
    (fun (o : Faultinject.outcome) ->
      Alcotest.failf "injection #%d (%s): %s" o.Faultinject.index
        (Faultinject.fault_to_string o.Faultinject.fault)
        o.Faultinject.detail)
    s.Faultinject.failures;
  Alcotest.(check int) "all injections ran" 24 s.Faultinject.total

let suite =
  ( "robust",
    [
      t "exit-code policy" `Quick test_classify;
      t "parse recovery keeps neighbouring functions" `Quick
        test_recovery_keeps_neighbours;
      t "metal parse errors carry a location" `Quick test_mdsl_error_located;
      QCheck_alcotest.to_alcotest prop_parse_total;
      t "cache save/load round-trips warm" `Quick test_cache_roundtrip;
      t "corrupt cache tail loads cold" `Quick test_cache_corrupt_tail_cold;
      t "missing cache file loads cold" `Quick test_cache_missing_cold;
      QCheck_alcotest.to_alcotest prop_cache_corruption_total;
      t "fused barrier isolates a crashing checker" `Quick
        test_fused_fault_isolated;
      t "mcd barrier isolates a crashing checker" `Quick
        test_mcd_fault_isolated;
      t "fault barrier is invisible on the clean path" `Quick
        test_clean_path_unchanged;
      t "an exhausted budget degrades, is reported" `Quick
        test_budget_exhaustion_contained;
      t "an ample budget changes nothing" `Quick test_ample_budget_is_noop;
      t "a dead worker's units are re-claimed" `Quick
        test_dead_worker_reclaimed;
      t "campaign: parser faults" `Quick
        (test_campaign Faultinject.Parser);
      t "campaign: cache faults" `Quick (test_campaign Faultinject.Cache);
      t "campaign: checker faults" `Quick
        (test_campaign Faultinject.Checker);
      t "campaign: budget faults" `Quick (test_campaign Faultinject.Budget);
    ] )
