(** Crash-freedom fuzzing: every tool in the pipeline must either succeed
    or raise its own documented exception, on arbitrary inputs — random
    handler shapes with every seeded-bug kind, and randomly mutated
    source text. *)

let t = Alcotest.test_case

let all_bugs =
  [
    Skeletons.No_bug; Skeletons.Race_read; Skeletons.Race_read_debug_fp;
    Skeletons.Len_data_mismatch; Skeletons.Double_free;
    Skeletons.Buffer_leak; Skeletons.Buf_minor; Skeletons.Buf_annot_useful;
    Skeletons.Buf_annot_fp; Skeletons.Buf_data_fp; Skeletons.Lane_overrun;
    Skeletons.Hook_omission; Skeletons.Hook_unimplemented;
    Skeletons.Alloc_unchecked_fp; Skeletons.Dir_no_writeback;
    Skeletons.Dir_spec_nak; Skeletons.Dir_spec_backout_fp;
    Skeletons.Dir_abstraction_fp; Skeletons.Sendwait_barrier_fp;
  ]

let all_flavors =
  [
    Skeletons.Bitvector; Skeletons.Dyn_ptr; Skeletons.Sci; Skeletons.Coma;
    Skeletons.Rac; Skeletons.Common;
  ]

(* a fully random handler: any style, any flavour, any bug *)
let random_handler seed : Ast.func =
  let rng = Rng.create ~seed in
  let g = Skeletons.gctx ~rng ~flavor:(Rng.choose rng all_flavors) in
  for _ = 1 to 3 do
    ignore (Skeletons.fresh_local g)
  done;
  let bug = Rng.choose rng all_bugs in
  let pad = Rng.range rng 0 8 in
  let branches = Rng.range rng 0 3 in
  let body =
    match Rng.int rng 8 with
    | 0 ->
      Skeletons.dir_consult_body g ~realloc:(Rng.bool rng)
        ~use_dir:(Rng.bool rng) ~dir_extra:(Rng.int rng 3) ~bug ~pad
        ~branches ()
    | 1 -> Skeletons.reply_receive_body g ~bug ~pad ~branches
             ~reads:(Rng.int rng 3)
    | 2 ->
      Skeletons.intervention_body g ~bug ~pad ~branches
        ~iface:(if Rng.bool rng then `PI else `IO)
    | 3 ->
      Skeletons.uncached_body g ~use_dir:(Rng.bool rng) ~bug ~pad ~branches
        ~write:(Rng.bool rng) ()
    | 4 -> Skeletons.writeback_body g ~use_dir:(Rng.bool rng) ~bug ~pad
             ~branches ()
    | 5 -> Skeletons.inval_body g ~use_dir:(Rng.bool rng) ~bug ~pad
             ~branches ()
    | 6 -> Skeletons.sw_body g ~bug ~pad ~branches ~alloc:(Rng.bool rng)
    | _ -> Skeletons.len_var_body g ~pad
  in
  let prologue =
    Skeletons.prologue ~kind:Flash_api.Hw_handler ~bug
  in
  let decls = List.rev_map (fun v -> Cb.decl_long v) g.Skeletons.locals in
  Cb.func "Fuzzed"
    (prologue
    @ [ Cb.decl_long "addr"; Cb.decl_long "src" ]
    @ decls
    @ [
        Cb.assign (Cb.id "addr") (Cb.hg "header.nh.address");
        Cb.assign (Cb.id "src") (Cb.hg "header.nh.src");
      ]
    @ body)

let spec =
  {
    Flash_api.p_name = "fuzz";
    p_handlers =
      [
        {
          Flash_api.h_name = "Fuzzed";
          h_kind = Flash_api.Hw_handler;
          h_lane_allowance = [| 1; 1; 1; 1 |];
          h_no_stack = false;
        };
      ];
    p_free_funcs = [ "SendNakAndFree" ];
    p_use_funcs = [];
    p_cond_free_funcs = [ "TryFreeBuffer" ];
  }

(* round-trip the function through the printer/parser so locations and
   types are realistic *)
let materialize (f : Ast.func) : Ast.tunit list =
  let printed =
    Pp.tunit_to_string { Ast.tu_file = "fz.c"; tu_globals = [ Ast.Gfunc f ] }
  in
  Parsed.ok (Frontend.parse_strings [ ("fz.c", Prelude.text ^ printed) ])

let prop_pipeline_never_crashes =
  QCheck.Test.make
    ~name:"checkers, fixer, optimizer, interp never crash on random handlers"
    ~count:120
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let tus = materialize (random_handler seed) in
      (* every checker *)
      List.iter
        (fun (c : Registry.checker) ->
          ignore (Registry.run c ~spec tus);
          ignore (c.Registry.applied tus))
        Registry.all;
      (* CFG + path statistics *)
      List.iter
        (fun tu ->
          List.iter
            (fun f -> ignore (Paths.analyze (Cfg.build f)))
            (Ast.functions tu))
        tus;
      (* transform and optimise *)
      ignore (Fixer.fix_all ~spec tus);
      ignore (Optimizer.optimize tus);
      (* interpret the handler with a fuel bound *)
      let program = Callgraph.build tus in
      let consts = Interp.consts_of_program tus in
      let node = Interp.create_node 0 in
      node.Interp.current_buffer <- Buffers.allocate node.Interp.buffers;
      (match Callgraph.find_func program "Fuzzed" with
      | Some f ->
        ignore (Interp.run_handler ~max_steps:50_000 ~node ~program ~consts f)
      | None -> ());
      true)

(* mutate corpus text: the front end must not raise, and every
   diagnostic it returns is a [lex] or [parse] one inside the file *)
let prop_parser_total_on_mutations =
  let corpus_file =
    lazy
      (let corpus = Corpus.generate () in
       snd (List.hd (List.hd corpus.Corpus.protocols).Corpus.files))
  in
  QCheck.Test.make
    ~name:
      "front end is total on mutations (never raises, diagnostics are \
       lex/parse ones located in the file)"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_bound 255))
    (fun (pos_seed, byte) ->
      let src = Lazy.force corpus_file in
      let b = Bytes.of_string src in
      let pos = pos_seed mod Bytes.length b in
      Bytes.set b pos (Char.chr byte);
      let mutated = Bytes.to_string b in
      let lines = List.length (String.split_on_char '\n' mutated) in
      let _, diags = Frontend.parse_strings [ ("mut.c", mutated) ] in
      match
        List.find_opt
          (fun (d : Diag.t) ->
            not
              ((d.Diag.checker = "lex" || d.Diag.checker = "parse")
              && d.Diag.loc.Loc.file = "mut.c"
              && d.Diag.loc.Loc.line >= 1
              && d.Diag.loc.Loc.line <= lines))
          diags
      with
      | None -> true
      | Some d -> QCheck.Test.fail_report (Diag.to_string d))

(* the metal DSL parser likewise *)
let prop_mdsl_total_on_mutations =
  let figure2 =
    "sm w { decl { scalar } a, b; start: { WAIT_FOR_DB_FULL(a); } ==> stop \
     | { MISCBUS_READ_DB(a, b); } ==> { err(\"race\"); } ; }"
  in
  QCheck.Test.make
    ~name:"metal parser is total on mutations" ~count:150
    QCheck.(pair (int_bound 1_000_000) (int_bound 255))
    (fun (pos_seed, byte) ->
      let b = Bytes.of_string figure2 in
      let pos = pos_seed mod Bytes.length b in
      Bytes.set b pos (Char.chr byte);
      match Mdsl.parse (Bytes.to_string b) with
      | _ -> true
      | exception Mdsl.Parse_error _ -> true
      | exception Pattern.Parse_error _ -> true)

let cases =
  [
    t "empty translation unit is fine everywhere" `Quick (fun () ->
        let tus =
          Parsed.ok (Frontend.parse_strings [ ("e.c", Prelude.text) ])
        in
        List.iter
          (fun (c : Registry.checker) -> ignore (Registry.run c ~spec tus))
          Registry.all;
        ignore (Optimizer.optimize tus));
    t "empty function body" `Quick (fun () ->
        let tus =
          Parsed.ok
            (Frontend.parse_strings
               [ ("e.c", Prelude.text ^ "void Fuzzed(void) { }") ])
        in
        List.iter
          (fun (c : Registry.checker) -> ignore (Registry.run c ~spec tus))
          Registry.all);
  ]

(* the Mcfuzz differential campaign (lib/fuzz): deterministic seeds so
   CI is stable; any failure prints the seed, and
   [mcfuzz --seed N --count 1 --mutate] reproduces it *)
let mcfuzz_cases =
  [
    t "mcfuzz: 200-seed smoke of the four differential oracles" `Quick
      (fun () ->
        let { Fuzz_driver.failures; _ } =
          Fuzz_driver.run ~base_seed:1 ~count:200 ~mutate:false ()
        in
        List.iter
          (fun f -> Format.eprintf "FAIL %a@." Fuzz_oracle.pp_failure f)
          failures;
        Alcotest.(check int) "oracle disagreements" 0 (List.length failures));
    t "mcfuzz: seeded-bug recall over every mutation kind" `Quick (fun () ->
        let { Fuzz_driver.score; failures } =
          Fuzz_driver.run ~base_seed:5000 ~count:20 ~mutate:true ()
        in
        Alcotest.(check int) "oracle disagreements" 0 (List.length failures);
        Alcotest.(check bool) "recall >= 0.9" true
          (Fuzz_score.overall_recall score >= 0.9));
  ]

let suite =
  ( "fuzz",
    cases @ mcfuzz_cases
    @ [
        QCheck_alcotest.to_alcotest prop_pipeline_never_crashes;
        QCheck_alcotest.to_alcotest prop_parser_total_on_mutations;
        QCheck_alcotest.to_alcotest prop_mdsl_total_on_mutations;
      ] )
