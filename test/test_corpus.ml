(** Corpus integration tests: generation is deterministic, the protocols
    parse and have the paper's shape, every seeded fault is found and
    nothing else is reported. *)

let t = Alcotest.test_case

(* generating twice is expensive; share one corpus across the suite *)
let corpus = lazy (Corpus.generate ())
let corpus2 = lazy (Corpus.generate ())

let protocol name = Option.get (Corpus.find (Lazy.force corpus) name)

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
        let a = Option.get (Corpus.find (Lazy.force corpus) "bitvector") in
        let b = Option.get (Corpus.find other "bitvector") in
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
              let diags = c.Registry.run ~spec:p.Corpus.spec p.Corpus.tus in
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
                  c.Registry.run ~spec:p.Corpus.spec p.Corpus.tus
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
                let diags = c.Registry.run ~spec:p.Corpus.spec p.Corpus.tus in
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
              let diags = Dir_entry.run ~spec:p.Corpus.spec p.Corpus.tus in
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
        let dir nak_pruning = total (Dir_entry.run ~nak_pruning) in
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
   invisible must reproduce these digests exactly. *)
let front_end_digest units =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (Frontend.parse_strings units)
          [ Marshal.No_sharing ]))

let pinned_seed_digests =
  [
    (0, "a3cbb7bab327a28a57e06049ba4850c8");
    (1, "be03fd2b7d9926e6c3d1a4393af8ff96");
    (2, "58f28bce2b6efa77ff93ebff8ed2955b");
    (3, "b2d0d7a6a46b5534d3f8c1a9cf8335e4");
    (4, "a4e06f25d7aafe768e2a6f90a5325f7e");
    (5, "70f3ac149438f4b6dc61afc3ef13f66d");
    (6, "ad78c678b54e37d6412176bbe9a0d5f1");
    (7, "d3d91fb4d638043878b5d9a73429ef53");
    (8, "9d55302fc9f10945fddd18630803537e");
    (9, "aa53a64839d84b52113fed181ed7cce4");
    (10, "72e596ac4b702826978e47aacc280a36");
    (11, "0d9e2a54e9f0b1a906b02cb337682fdd");
    (12, "cf269db57fbc65dc56bd50ce81e5da82");
    (13, "c0cd307d0cb19ddc695c5febda90a7fe");
    (14, "eadeee060a4ade2038401bf92ef181ce");
    (15, "a33445c1e14f4ed0d81157bb63157d0e");
  ]

let pinned_input_digests =
  [
    ("golden-clean", "3c2a4f38ec354bc52b11692bf9006e10");
    ("golden-buggy", "a79fa676a381fd3ac07068b5a3778e0b");
    ("recover-garbage-between-functions", "41faba2bd084adbaaa854ca269ebcc90");
    ("recover-unclosed-brace", "61593794dce85525bc37741fd53be247");
    ("recover-truncated-mid-statement", "b80d7eb07583de63823c5c684870f606");
    ("recover-unterminated-string", "144826ecb707a193a6ef190a40259dd3");
    ("recover-bad-toplevel-decl", "5eb17e5681057dff1b39311e0c6d1cfb");
    ("recover-two-bad-regions", "9cb01eb0ca504258270756374bad861f");
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

let suite =
  let name, cases0 = suite in
  (name, cases0 @ front_end_cases)

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
