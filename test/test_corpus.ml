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
