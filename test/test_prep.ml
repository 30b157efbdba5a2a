(** Prep-sharing tests: the checking kernel's diagnostics — including
    the rendered witness paths [--explain] prints — are identical to the
    per-checker reference [Registry.run_all] on arbitrary generated
    programs and on the corpus and golden protocols, and one sequential
    kernel run builds exactly one [Prep.t] per function (pinned via the
    [prep.build] Mcobs counter). *)

let t = Alcotest.test_case

(* the strictest rendering: checker names interleaved with the full
   --explain output, so content, order, and witness steps are compared *)
let explain_render (results : (string * Diag.t list) list) : string list =
  List.concat_map
    (fun (name, ds) ->
      name :: List.map (fun d -> Format.asprintf "%a" Diag.pp_explain d) ds)
    results

let prop_fused_identical =
  QCheck.Test.make ~count:25
    ~name:"fused = per-checker on generated programs (incl. witnesses)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = Fuzz_gen.generate ~seed () in
      let spec = p.Fuzz_gen.spec and tus = p.Fuzz_gen.tus in
      let seq = explain_render (Registry.run_all ~spec tus) in
      let fused = explain_render (Registry.run_all_product ~spec tus) in
      if seq <> fused then
        QCheck.Test.fail_reportf
          "seed %d: fused diagnostics/witnesses differ" seed;
      true)

let counter_of (snap : Mcobs.snapshot) name =
  Option.value ~default:0 (List.assoc_opt name snap.Mcobs.counters)

let build_once_tests =
  [
    t "fused run builds exactly one Prep per function" `Quick (fun () ->
        let p = Checks.protocol (Corpus.generate ()) "bitvector" in
        let nfuncs =
          List.fold_left
            (fun acc tu -> acc + List.length (Ast.functions tu))
            0 p.Corpus.tus
        in
        Mcobs.set_enabled true;
        Mcobs.reset ();
        ignore (Registry.run_all_product ~spec:p.Corpus.spec p.Corpus.tus);
        let snap = Mcobs.snapshot () in
        Mcobs.reset ();
        Alcotest.(check int)
          "prep.build count" nfuncs
          (counter_of snap "prep.build"));
  ]

let product_tests =
  [
    t "product walk is identical on the corpus and golden protocols"
      `Quick (fun () ->
        let corpus = Corpus.generate () in
        let inputs =
          List.map
            (fun (p : Corpus.protocol) ->
              ("corpus " ^ p.Corpus.name, p.Corpus.spec, p.Corpus.tus))
            corpus.Corpus.protocols
          @ List.map
              (fun (v, label) -> (label, Golden.spec, Golden.program v))
              [ (Golden.Clean, "golden-clean"); (Golden.Buggy, "golden-buggy") ]
        in
        List.iter
          (fun (label, spec, tus) ->
            let seq = explain_render (Registry.run_all ~spec tus) in
            Alcotest.(check (list string))
              (label ^ ": product driver") seq
              (explain_render (Registry.run_all_product ~spec tus));
            Alcotest.(check (list string))
              (label ^ ": Mcd at one domain") seq
              (explain_render (fst (Mcd.check_corpus ~jobs:1 ~spec tus))))
          inputs);
  ]

(* A function that drives [alloc_check] past 254 live states — one
   [Unchecked xi] state per allocation site, all on one path — overflows
   the scan's 8-bit packed state field, so the scan reruns with
   structural keys.  The result must still be the reference's. *)
let fallback_tests =
  [
    t "product scan falls back to structural keys past 254 states" `Quick
      (fun () ->
        let sites =
          List.init 300 (fun i ->
              Printf.sprintf "  x%d = %s();\n" i Flash_api.allocate_db)
        in
        let src =
          "void deep_allocs(void) {\n" ^ String.concat "" sites
          ^ Printf.sprintf "  %s(x299, 0, 0);\n}\n" Flash_api.miscbus_write_db
        in
        let tus = Parsed.ok (Frontend.parse_strings [ ("deep.c", src) ]) in
        let spec = Golden.spec in
        let reference = Registry.run_all ~spec tus in
        let seq = explain_render reference in
        let was = Mcobs.enabled () in
        Mcobs.set_enabled true;
        Mcobs.reset ();
        let product = explain_render (Registry.run_all_product ~spec tus) in
        let snap = Mcobs.snapshot () in
        Mcobs.reset ();
        Mcobs.set_enabled was;
        Alcotest.(check int)
          "one packed-key fallback" 1
          (counter_of snap "engine.product_pack_fallbacks");
        Alcotest.(check int) "one product scan" 1
          (counter_of snap "engine.product_scans");
        Alcotest.(check int) "alloc_check reports the unchecked use" 1
          (List.length (List.assoc Alloc_check.name reference));
        Alcotest.(check (list string)) "identical to run_all" seq product);
  ]

(* [Registry] stages every per-function checker through one helper per
   kind; a loaded metal spec goes through the machine helper. *)
let wait_for_db_metal =
  {|
sm wait_for_db {
  decl { scalar } addr, buf;
  start:
    { WAIT_FOR_DB_FULL(addr); } ==> stop
  | { MISCBUS_READ_DB(addr, buf); } ==>
      { err("Buffer not synchronized"); }
  ;
}
|}

let registry_tests =
  [
    t "registry: machine checkers pack a product machine, AST walks do not"
      `Quick (fun () ->
        let kind (c : Registry.checker) =
          match c.Registry.phase with
          | Registry.Whole_program _ -> "whole-program"
          | Registry.Per_function { product; _ } -> (
            match product ~spec:Golden.spec with
            | Some _ -> "machine"
            | None -> "walk")
        in
        Alcotest.(check (list (pair string string)))
          "kinds"
          [
            (Buffer_mgmt.name, "machine");
            (Msg_length.name, "machine");
            (Lane_checker.name, "whole-program");
            (Buffer_race.name, "machine");
            (Alloc_check.name, "machine");
            (Dir_entry.name, "machine");
            (Send_wait.name, "machine");
            (Exec_restrict.name, "walk");
            (No_float.name, "walk");
          ]
          (List.map (fun (c : Registry.checker) -> (c.Registry.name, kind c))
             Registry.all));
    t "registry: a loaded metal spec checks the same through the kernel"
      `Quick (fun () ->
        let p = Checks.protocol (Corpus.generate ()) "bitvector" in
        let spec = p.Corpus.spec and tus = p.Corpus.tus in
        let sm = Mdsl.load wait_for_db_metal in
        let c = Registry.of_sm ~key:"wait_for_db" sm in
        let reference = Registry.run c ~spec tus in
        Alcotest.(check int) "the engine's own walk"
          (List.length (Engine.check sm (`Program tus)))
          (List.length reference);
        let staged =
          Registry.stage ~checkers:[ c ] ~spec ~ctx:(Registry.make_ctx tus)
        in
        let per_function, faults =
          List.split
            (List.concat_map
               (fun tu ->
                 List.map
                   (Registry.check_function staged ~budget:Engine.no_budget)
                   (Ast.functions tu))
               tus)
        in
        Alcotest.(check (list string))
          "kernel = Registry.run"
          (explain_render [ (c.Registry.name, reference) ])
          (explain_render
             (Registry.assemble ~checkers:[ c ] ~per_function
                ~whole_program:[] ~faults:(List.concat faults))));
  ]

let suite =
  ( "prep",
    build_once_tests @ product_tests @ fallback_tests @ registry_tests
    @ [ QCheck_alcotest.to_alcotest prop_fused_identical ] )
