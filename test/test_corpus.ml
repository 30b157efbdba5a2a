(** Corpus integration tests: generation is deterministic, the protocols
    parse and have the paper's shape, every seeded fault is found and
    nothing else is reported. *)

let t = Alcotest.test_case

(* generating twice is expensive; share one corpus across the suite *)
let corpus = lazy (Corpus.generate ())
let corpus2 = lazy (Corpus.generate ())

let protocol name = Checks.protocol (Lazy.force corpus) name

let generation_cases =
  [
    t "six protocols generated" `Quick (fun () ->
        Alcotest.(check int) "count" 6
          (List.length (Lazy.force corpus).Corpus.protocols));
    t "generation is deterministic" `Slow (fun () ->
        List.iter2
          (fun (a : Corpus.protocol) (b : Corpus.protocol) ->
            Alcotest.(check string) "name" a.Corpus.name b.Corpus.name;
            List.iter2
              (fun (fa, sa) (fb, sb) ->
                Alcotest.(check string) "file name" fa fb;
                Alcotest.(check bool)
                  (Printf.sprintf "%s content identical" fa)
                  true (String.equal sa sb))
              a.Corpus.files b.Corpus.files)
          (Lazy.force corpus).Corpus.protocols
          (Lazy.force corpus2).Corpus.protocols);
    t "different seeds differ" `Slow (fun () ->
        let other = Corpus.generate ~seed:123 () in
        let a = Checks.protocol (Lazy.force corpus) "bitvector" in
        let b = Checks.protocol other "bitvector" in
        Alcotest.(check bool) "contents differ" false
          (String.equal (snd (List.hd a.Corpus.files))
             (snd (List.hd b.Corpus.files))));
    t "routine counts match the paper exactly" `Quick (fun () ->
        List.iter
          (fun (name, expected) ->
            let p = protocol name in
            let routines =
              List.fold_left
                (fun acc tu -> acc + List.length (Ast.functions tu))
                0 p.Corpus.tus
            in
            Alcotest.(check int) (name ^ " routines") expected routines)
          [
            ("bitvector", 168); ("dyn_ptr", 227); ("sci", 214);
            ("coma", 193); ("rac", 200); ("common", 62);
          ]);
    t "LOC lands in the paper's ballpark" `Quick (fun () ->
        List.iter
          (fun (name, (paper_loc, _, _, _)) ->
            let p = protocol name in
            let ratio = float_of_int p.Corpus.loc /. float_of_int paper_loc in
            Alcotest.(check bool)
              (Printf.sprintf "%s LOC ratio %.2f in [0.6, 1.5]" name ratio)
              true
              (ratio > 0.6 && ratio < 1.5))
          Paper_data.table1);
    t "every handler in the spec exists in the source" `Quick (fun () ->
        List.iter
          (fun (p : Corpus.protocol) ->
            List.iter
              (fun (h : Flash_api.handler_spec) ->
                let found =
                  List.exists
                    (fun tu -> Ast.find_function tu h.Flash_api.h_name <> None)
                    p.Corpus.tus
                in
                Alcotest.(check bool)
                  (p.Corpus.name ^ ": " ^ h.Flash_api.h_name ^ " defined")
                  true found)
              p.Corpus.spec.Flash_api.p_handlers)
          (Lazy.force corpus).Corpus.protocols);
    t "every manifest function exists in the source" `Quick (fun () ->
        List.iter
          (fun (p : Corpus.protocol) ->
            List.iter
              (fun (e : Manifest.entry) ->
                let found =
                  List.exists
                    (fun tu -> Ast.find_function tu e.Manifest.func <> None)
                    p.Corpus.tus
                in
                Alcotest.(check bool)
                  (p.Corpus.name ^ ": " ^ e.Manifest.func ^ " exists")
                  true found)
              p.Corpus.manifest)
          (Lazy.force corpus).Corpus.protocols);
  ]

(* the central integration test: every checker's output classifies
   exactly against the seeded manifest *)
let checker_vs_manifest_cases =
  List.concat_map
    (fun pname ->
      List.map
        (fun (c : Registry.checker) ->
          t
            (Printf.sprintf "%s/%s matches the manifest" pname
               c.Registry.name)
            `Slow
            (fun () ->
              let p = protocol pname in
              let diags = Registry.run c ~spec:p.Corpus.spec p.Corpus.tus in
              let bugs = ref 0 and minors = ref 0 and fps = ref 0 in
              List.iter
                (fun (d : Diag.t) ->
                  match
                    Manifest.classify p.Corpus.manifest
                      ~checker:c.Registry.name ~protocol:pname
                      ~func:d.Diag.func
                  with
                  | Some e -> (
                    match e.Manifest.kind with
                    | Manifest.Bug -> incr bugs
                    | Manifest.Minor -> incr minors
                    | Manifest.False_positive -> incr fps)
                  | None ->
                    Alcotest.failf "unseeded diagnostic: %s"
                      (Diag.to_string d))
                diags;
              let eb, em, ef =
                Manifest.expected_counts p.Corpus.manifest
                  ~checker:c.Registry.name ~protocol:pname
              in
              Alcotest.(check int) "bugs" eb !bugs;
              Alcotest.(check int) "minor" em !minors;
              Alcotest.(check int) "false positives" ef !fps))
        Registry.all)
    [ "bitvector"; "dyn_ptr"; "sci"; "coma"; "rac"; "common" ]

let totals_cases =
  [
    t "grand totals are the paper's 34 errors and 69 FPs" `Slow (fun () ->
        let bugs = ref 0 and fps = ref 0 in
        List.iter
          (fun (p : Corpus.protocol) ->
            List.iter
              (fun (c : Registry.checker) ->
                let diags =
                  Registry.run c ~spec:p.Corpus.spec p.Corpus.tus
                in
                List.iter
                  (fun (d : Diag.t) ->
                    match
                      Manifest.classify p.Corpus.manifest
                        ~checker:c.Registry.name ~protocol:p.Corpus.name
                        ~func:d.Diag.func
                    with
                    | Some { Manifest.kind = Manifest.Bug; _ }
                      when c.Registry.name <> "exec_restrict" ->
                      incr bugs
                    | Some { Manifest.kind = Manifest.False_positive; _ } ->
                      incr fps
                    | _ -> ())
                  diags)
              Registry.all)
          (Lazy.force corpus).Corpus.protocols;
        Alcotest.(check int) "errors" 34 !bugs;
        Alcotest.(check int) "false positives" 69 !fps);
    t "annotation usefulness matches Table 4" `Slow (fun () ->
        List.iter
          (fun (name, (_, _, useful, _)) ->
            let p = protocol name in
            let outcome =
              Buffer_mgmt.run_with_annotations ~spec:p.Corpus.spec
                p.Corpus.tus
            in
            Alcotest.(check int)
              (name ^ " useful annotations")
              useful outcome.Buffer_mgmt.useful_annotations)
          Paper_data.table4);
    t "applied counts for Table 2 are exact" `Slow (fun () ->
        List.iter
          (fun (name, (_, _, applied)) ->
            let p = protocol name in
            Alcotest.(check int) (name ^ " reads") applied
              (Buffer_race.applied p.Corpus.tus))
          Paper_data.table2);
  ]

let suite =
  ( "corpus",
    generation_cases @ checker_vs_manifest_cases @ totals_cases )

(* the seeded faults are found at any generation seed: the reproduction is
   not an artifact of one lucky seed *)
let seed_robustness_cases =
  [
    Alcotest.test_case "manifest counts hold at another seed" `Slow
      (fun () ->
        let other = Corpus.generate ~seed:987_654 () in
        List.iter
          (fun (p : Corpus.protocol) ->
            List.iter
              (fun (c : Registry.checker) ->
                let diags = Registry.run c ~spec:p.Corpus.spec p.Corpus.tus in
                let found = ref 0 in
                List.iter
                  (fun (d : Diag.t) ->
                    match
                      Manifest.classify p.Corpus.manifest
                        ~checker:c.Registry.name ~protocol:p.Corpus.name
                        ~func:d.Diag.func
                    with
                    | Some _ -> incr found
                    | None ->
                      Alcotest.failf "unseeded diagnostic at seed 987654: %s"
                        (Diag.to_string d))
                  diags;
                let eb, em, ef =
                  Manifest.expected_counts p.Corpus.manifest
                    ~checker:c.Registry.name ~protocol:p.Corpus.name
                in
                Alcotest.(check int)
                  (Printf.sprintf "%s/%s total reports" p.Corpus.name
                     c.Registry.name)
                  (eb + em + ef) !found)
              Registry.all)
          other.Corpus.protocols);
  ]

let suite =
  let name, cases0 = suite in
  (name, cases0 @ seed_robustness_cases)

(* the speculative-NAK pruning works at every seeded Dir_spec_nak site:
   those handlers must produce zero directory diagnostics *)
let pruning_cases =
  [
    Alcotest.test_case "every Dir_spec_nak site is pruned" `Slow (fun () ->
        List.iter
          (fun (p : Corpus.protocol) ->
            let nak_handlers =
              List.filter_map
                (fun (name, bug) ->
                  if bug = Skeletons.Dir_spec_nak then Some name else None)
                p.Corpus.config.Profile.bugs
            in
            if nak_handlers <> [] then begin
              let diags =
                Checks.run Dir_entry.name ~spec:p.Corpus.spec p.Corpus.tus
              in
              List.iter
                (fun h ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s/%s silent" p.Corpus.name h)
                    false
                    (List.exists
                       (fun (d : Diag.t) -> String.equal d.Diag.func h)
                       diags))
                nak_handlers
            end)
          (Lazy.force corpus).Corpus.protocols);
    (* the two ablations EXPERIMENTS.md quotes: the paper's rule on, then
       off *)
    Alcotest.test_case "ablations: fixed point and NAK pruning" `Slow
      (fun () ->
        let total run =
          List.fold_left
            (fun acc (p : Corpus.protocol) ->
              acc + List.length (run ~spec:p.Corpus.spec p.Corpus.tus))
            0 (Lazy.force corpus).Corpus.protocols
        in
        let lanes fixed_point = total (Lane_checker.run ~fixed_point) in
        let dir nak_pruning =
          total (fun ~spec tus ->
              let m = Dir_entry.machine ~nak_pruning ~spec () in
              List.concat_map
                (fun tu ->
                  List.concat_map
                    (fun f -> Engine.check_prep m (Prep.build f))
                    (Ast.functions tu))
                tus)
        in
        Alcotest.(check (pair int int)) "lanes with / without fixed point"
          (2, 30) (lanes true, lanes false);
        Alcotest.(check (pair int int)) "directory with / without pruning"
          (32, 36) (dir true, dir false));
  ]

let suite =
  let name, cases0 = suite in
  (name, cases0 @ pruning_cases)

(* The whole front end, pinned: the md5 of the marshalled, annotated
   [Ast.tunit list] plus its parse diagnostics covers every node,
   location and [ety].  A lexer or parser change that is meant to be
   invisible must reproduce these digests exactly.  They cover each
   function's [f_src_digest] too; with that field left out of the
   marshalled records, they equal the digests pinned before it was
   added. *)
let front_end_digest units =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (Frontend.parse_strings units)
          [ Marshal.No_sharing ]))

let pinned_seed_digests =
  [
    (0, "3a03485b095295af03d256f74e5c6842");
    (1, "811bf5affd7573ff17be963580421eff");
    (2, "5ca4ae75442f576e1d870200d18a7b5e");
    (3, "0829b9a72493b2e802107265a6b6317a");
    (4, "0aecd933bcae29622b54fe6c94bb3b88");
    (5, "ad3851711c0495ac778d31f3796a65d2");
    (6, "fafd05e1a190729931829521dafc9cc1");
    (7, "0c716ad9b21cc468e550706248e0a9f9");
    (8, "1e2f22216ec6900acd45c66576e6ab67");
    (9, "1e78e1f3a956bd70d0175545f28194a2");
    (10, "99c8f81e4967274aee116cfb6a803821");
    (11, "a0a2b756f3f179a4ff4b7e6573cf78c8");
    (12, "8041226763c29601b063072983768e97");
    (13, "4d4a2771a5055ed5232255678da209be");
    (14, "48d5a27f1bcb9d837fcfd924bfb45901");
    (15, "c41634f00220022aa55d597bb57c99c3");
  ]

let pinned_input_digests =
  [
    ("golden-clean", "9bd4b9e3d8aa856315f1e203238dc546");
    ("golden-buggy", "1be5464ea209aa7294b4cfe1e011a154");
    ("recover-garbage-between-functions", "5c3afd736d5615372ef16d4313466b98");
    ("recover-unclosed-brace", "44f9a63234d301747753b71031094311");
    ("recover-truncated-mid-statement", "bf579df6f37521dcfc6e76025e9317a3");
    ("recover-unterminated-string", "2f82e7937e44111f9f42bdc42eede1c0");
    ("recover-bad-toplevel-decl", "17837548d2eb74da06c86a5c8a9874bb");
    ("recover-two-bad-regions", "7539e80954e2958c99d9fbfeb3c8f6a7");
    ("recover-empty-file", "31d153d301cf2e52d8bdada7021d601e");
    ("recover-only-garbage", "6bdfebd5a0ff16af87066b4a302029e7");
  ]

let front_end_cases =
  [
    Alcotest.test_case "front end output is pinned (corpus seeds 0-15)" `Slow
      (fun () ->
        List.iter
          (fun seed ->
            let digests =
              List.map front_end_digest (Front_inputs.protocols seed)
            in
            let got =
              Digest.to_hex (Digest.string (String.concat "" digests))
            in
            Alcotest.(check string)
              (Printf.sprintf "seed %d" seed)
              (List.assoc seed pinned_seed_digests)
              got)
          Front_inputs.seeds);
    Alcotest.test_case "front end output is pinned (golden, recover)" `Quick
      (fun () ->
        List.iter
          (fun (label, units) ->
            Alcotest.(check string) label
              (List.assoc label pinned_input_digests)
              (front_end_digest units))
          Front_inputs.units);
  ]

(* The parallel front end against the sequential one: the marshalled,
   annotated units (every [ety] included) and the diagnostics in order
   must be the one-domain result at 2 and 4 domains, whatever the
   typedef pre-scan predicts. *)
let front_end_at domains units =
  Marshal.to_string
    (Frontend.parse_strings ~domains units)
    [ Marshal.No_sharing ]

let mispredicted () =
  Mcobs.counter_value (Mcobs.counter "cfront.prescan.mispredict")

let check_domains label units =
  let one = front_end_at 1 units in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d domains = 1 domain" label domains)
        true
        (String.equal one (front_end_at domains units)))
    [ 2; 4 ]

(* [later] reads [t1]/[t2] as types when they are typedefs and as
   expressions otherwise, so a wrong scope shows in its parse *)
let later = ("later.c", "void L(void) { t1 * a; t2 * b; h_t * c; t3 * d; }\n")

let tricky_programs =
  [
    ( "function-pointer typedef",
      [
        ("fp.c", "typedef void (*h_t)(int x);\nint g;\n");
        later;
      ] );
    ( "typedef inside a region recovery skips",
      [
        ("skip.c", "int a;\n@@ { typedef int t1; }\nvoid f(void) { }\n");
        later;
      ] );
    ( "malformed typedef declarator",
      [ ("bad.c", "typedef int t1 t2;\ntypedef int t2;\n"); later ] );
    ( "typedef of a name an earlier file uses as a variable",
      [
        ("use.c", "int t3;\nvoid u(void) { t3 = t3 * 2; }\n");
        ("def.c", "typedef int t3;\nt3 g3;\n");
        later;
      ] );
    ( "lex errors",
      [
        ("lex.c", "int a = 1 $ 2;\ntypedef int t1;\nchar *s = \"open\n");
        ("lex2.c", "typedef unsigned t2; int b = 0x` 3;\n");
        later;
      ] );
  ]

let parallel_front_end_cases =
  [
    Alcotest.test_case "parallel front end = sequential (corpus seeds 0-3)"
      `Slow (fun () ->
        let before = mispredicted () in
        List.iter
          (fun seed ->
            List.iteri
              (fun i units ->
                check_domains (Printf.sprintf "seed %d protocol %d" seed i) units)
              (Front_inputs.protocols seed))
          [ 0; 1; 2; 3 ];
        Alcotest.(check int) "no pre-scan mispredicts on the corpus" before
          (mispredicted ()));
    Alcotest.test_case "parallel front end = sequential (typedef edge cases)"
      `Quick (fun () ->
        let before = mispredicted () in
        List.iter (fun (label, units) -> check_domains label units)
          tricky_programs;
        Alcotest.(check bool) "a wrong pre-scan was caught and re-parsed" true
          (mispredicted () > before));
  ]

let suite =
  let name, cases0 = suite in
  (name, cases0 @ front_end_cases @ parallel_front_end_cases)

(* The degraded (flow-insensitive) walk, pinned: the md5 of every
   protocol's [--explain] rendering under [Engine.with_degraded] for
   corpus seeds 0-3.  The walk is the fault barrier's fallback, so its
   diagnostics and witnesses must not drift under engine refactors. *)
let degraded_digest seed =
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter
    (fun (p : Corpus.protocol) ->
      Format.fprintf ppf "== %s@." p.Corpus.name;
      List.iter
        (fun (checker, diags) ->
          Format.fprintf ppf "-- %s: %d@." checker (List.length diags);
          List.iter (fun d -> Format.fprintf ppf "%a@." Diag.pp_explain d) diags)
        (Engine.with_degraded (fun () ->
             Registry.run_all_product ~spec:p.Corpus.spec p.Corpus.tus)))
    (Corpus.generate ~seed ()).Corpus.protocols;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pinned_degraded_digests =
  [
    (0, "bc5caeb757f8b8a9864b6acb35a37979");
    (1, "f2b2faf9b58ff47bc2b95220fa64f654");
    (2, "9b96de28d63c9e67b93dc8c9b3262a93");
    (3, "cfb912a983f102c7bc76750e156e65a1");
  ]

let degraded_cases =
  [
    Alcotest.test_case "degraded walk output is pinned (corpus seeds 0-3)"
      `Slow (fun () ->
        List.iter
          (fun (seed, want) ->
            Alcotest.(check string)
              (Printf.sprintf "seed %d" seed)
              want (degraded_digest seed))
          pinned_degraded_digests);
  ]

let suite =
  let name, cases0 = suite in
  (name, cases0 @ degraded_cases)

(* The lanes checker, pinned: the md5 of every protocol's lanes
   diagnostics for corpus seeds 0-3 with their real specs, plain, with
   [--explain] witnesses, and without the fixed-point rule (the
   ablation), as printed before the checker's local and global passes
   were split. *)
let lanes_digest ?fixed_point ~render seed =
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter
    (fun (p : Corpus.protocol) ->
      Format.fprintf ppf "== %s@." p.Corpus.name;
      List.iter
        (fun d -> Format.fprintf ppf "%a@." render d)
        (Lane_checker.run ?fixed_point ~spec:p.Corpus.spec p.Corpus.tus))
    (Corpus.generate ~seed ()).Corpus.protocols;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pinned_lanes_digests =
  [
    ( 0,
      ( "0b0d07e5a16d26c93183821739324d20",
        "5c8ba1519f9bdf4f2588e31b4836a5ab",
        "48868090daebf487769e829d8317bfd0" ) );
    ( 1,
      ( "ff12878489487cc5618de6a4841703b1",
        "c0cae4af5fa08aaee0bf508d62d04028",
        "b33a6e0b4e0ec5a67fa226d412cc96e7" ) );
    ( 2,
      ( "5d43ecc2373798f1cd9e036859a97572",
        "9655d5d034a4130c4684fbfcf352ab53",
        "e25e4301e518145373d332dc5e269505" ) );
    ( 3,
      ( "25c15e210d220437a0759cdc0732e7eb",
        "1b0698b886286aa06bc8cd890e79be9d",
        "e563e3ce54aa2e02105c92e206809be8" ) );
  ]

let lanes_cases =
  [
    Alcotest.test_case "lanes output is pinned (corpus seeds 0-3)" `Slow
      (fun () ->
        List.iter
          (fun (seed, (plain, explain, ablation)) ->
            let check what want got =
              Alcotest.(check string)
                (Printf.sprintf "seed %d %s" seed what)
                want got
            in
            check "plain" plain (lanes_digest ~render:Diag.pp seed);
            check "explain" explain (lanes_digest ~render:Diag.pp_explain seed);
            check "no fixed point" ablation
              (lanes_digest ~fixed_point:false ~render:Diag.pp_explain seed))
          pinned_lanes_digests);
  ]

let suite =
  let name, cases0 = suite in
  (name, cases0 @ lanes_cases)
