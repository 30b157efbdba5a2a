(** The Mcheck_api session facade: equivalence with the reference
    pipeline, selection, outcome classification, budgets, statistics,
    the whole-request memo, and the deprecated one-shot shim. *)

(* an order-sensitive rendering of per-protocol results, one checker
   name line followed by its diagnostics *)
let render_results (results : (string * Diag.t list) list list) : string =
  String.concat "\n"
    (List.concat_map
       (fun per_checker ->
         List.concat_map
           (fun (name, ds) -> name :: List.map Diag.to_string ds)
           per_checker)
       results)

let t = Alcotest.test_case

let buggy_src =
  "void H(void) { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA; \
   NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); }"

let clean_src =
  "void H(void) { HANDLER_DEFS(); SIM_HANDLER_HOOK(); FREE_DB(); }"

let render report =
  String.concat ""
    (List.map
       (Mcheck_api.render_diag
          { Mcheck_api.ro_explain = false; ro_verbose = false; ro_quiet = false })
       (Mcheck_api.report_diags report))

(* [f]'s result, and how far it moved each counter of the registry *)
let registry_moved f =
  let before = Mcobs.metrics () in
  let r = f () in
  let d = Mcobs.diff (Mcobs.metrics ()) before in
  ( r,
    fun name ->
      Option.value ~default:0 (List.assoc_opt name d.Mcobs.m_counters) )

let with_session ?config f =
  let s = Mcheck_api.Session.create ?config () in
  Fun.protect ~finally:(fun () -> Mcheck_api.Session.close s) (fun () -> f s)

let write_tmp name contents =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  Mcheck_api.write_file path contents;
  path

let session_cases =
  [
    t "check_buffer matches the raw fused pipeline" `Quick (fun () ->
        let tus =
          Parsed.ok
            (Frontend.parse_strings
               [ ("b.c", Prelude.text ^ buggy_src) ])
        in
        let expected =
          Registry.run_all ~spec:(Mcheck_api.default_spec tus) tus
        in
        with_session (fun s ->
            let r =
              Mcheck_api.Session.check_buffer s ~name:"b.c"
                ~contents:buggy_src
            in
            Alcotest.(check string)
              "same diagnostics"
              (String.concat "\n"
                 (List.concat_map
                    (fun (n, ds) -> n :: List.map Diag.to_string ds)
                    (List.filter (fun (_, ds) -> ds <> []) expected)))
              (String.concat "\n"
                 (List.concat_map
                    (fun (n, ds) -> n :: List.map Diag.to_string ds)
                    (List.filter (fun (_, ds) -> ds <> [])
                       r.Mcheck_api.r_results)))));
    t "check_files equals check_buffer on the same bytes" `Quick (fun () ->
        let path = write_tmp "api_eq.c" buggy_src in
        with_session (fun s ->
            let from_file = Mcheck_api.Session.check_files s [ path ] in
            let from_buf =
              Mcheck_api.Session.check_buffer s ~name:path
                ~contents:buggy_src
            in
            Alcotest.(check string)
              "same render" (render from_file) (render from_buf);
            Alcotest.(check int)
              "same findings" from_file.Mcheck_api.r_findings
              from_buf.Mcheck_api.r_findings));
    t "outcomes: clean 0, findings 1, garbage partial, missing unusable"
      `Quick (fun () ->
        with_session (fun s ->
            let clean =
              Mcheck_api.Session.check_buffer s ~name:"c.c"
                ~contents:clean_src
            in
            Alcotest.(check int) "clean exit" 0
              (Robust.exit_code clean.Mcheck_api.r_outcome);
            let buggy =
              Mcheck_api.Session.check_buffer s ~name:"b.c"
                ~contents:buggy_src
            in
            Alcotest.(check int) "findings exit" 1
              (Robust.exit_code buggy.Mcheck_api.r_outcome);
            (* recovered-garbage alongside an intact function: partial *)
            let partial =
              Mcheck_api.Session.check_buffer s ~name:"g.c"
                ~contents:(clean_src ^ " @#$ not C at all")
            in
            Alcotest.(check int) "partial exit" 2
              (Robust.exit_code partial.Mcheck_api.r_outcome);
            let missing =
              Mcheck_api.Session.check_files s [ "/nonexistent/nope.c" ]
            in
            Alcotest.(check int) "unusable exit" 3
              (Robust.exit_code missing.Mcheck_api.r_outcome)));
    t "selection filters findings but keeps internal entries" `Quick
      (fun () ->
        let config =
          { Mcheck_api.default_config with checkers = [ "buffer_race" ] }
        in
        with_session ~config (fun s ->
            let r =
              Mcheck_api.Session.check_buffer s ~name:"b.c"
                ~contents:buggy_src
            in
            Alcotest.(check int) "msg_length filtered out" 0
              r.Mcheck_api.r_findings;
            List.iter
              (fun (name, _) ->
                Alcotest.(check bool)
                  (name ^ " allowed") true
                  (String.equal name "buffer_race"
                  || String.equal name "internal"))
              r.Mcheck_api.r_results));
    t "per-call checkers override beats the session default" `Quick
      (fun () ->
        with_session (fun s ->
            let all =
              Mcheck_api.Session.check_buffer s ~name:"b.c"
                ~contents:buggy_src
            in
            let only =
              Mcheck_api.Session.check_buffer
                ~checkers:[ "buffer_race" ] s ~name:"b.c"
                ~contents:buggy_src
            in
            Alcotest.(check bool) "default finds the bug" true
              (all.Mcheck_api.r_findings > 0);
            Alcotest.(check int) "override filters it" 0
              only.Mcheck_api.r_findings));
    t "stats count requests, files, findings" `Quick (fun () ->
        with_session (fun s ->
            let (), moved =
              registry_moved (fun () ->
                  ignore
                    (Mcheck_api.Session.check_buffer s ~name:"b.c"
                       ~contents:buggy_src);
                  ignore
                    (Mcheck_api.Session.check_buffer s ~name:"c.c"
                       ~contents:clean_src))
            in
            Alcotest.(check int) "requests" 2
              (moved "mcheck_session_requests_total");
            Alcotest.(check int) "files" 2 (moved "api.files_checked");
            Alcotest.(check bool) "findings counted" true
              (moved "mcheck_findings_total" > 0)));
    t "incremental memo answers identical re-checks" `Quick (fun () ->
        let config =
          { Mcheck_api.default_config with incremental = true }
        in
        with_session ~config (fun s ->
            let r1 =
              Mcheck_api.Session.check_buffer s ~name:"b.c"
                ~contents:buggy_src
            in
            let r2, moved =
              registry_moved (fun () ->
                  Mcheck_api.Session.check_buffer s ~name:"b.c"
                    ~contents:buggy_src)
            in
            Alcotest.(check string) "identical" (render r1) (render r2);
            Alcotest.(check int) "memo hit recorded" 1
              (moved "mcheck_memo_hits_total");
            Alcotest.(check int) "no unit ran or hit" 0
              (moved "mcheck_units_run_total"
              + moved "mcheck_unit_cache_hits_total");
            (* different bytes must miss *)
            let r3 =
              Mcheck_api.Session.check_buffer s ~name:"b.c"
                ~contents:clean_src
            in
            Alcotest.(check bool) "distinct input, distinct report" true
              (r3.Mcheck_api.r_findings <> r1.Mcheck_api.r_findings)));
    t "check_jobs matches per-protocol fused runs" `Quick (fun () ->
        let corpus = Corpus.generate () in
        let jobs = Mcheck_api.corpus_jobs corpus in
        let expected =
          List.map
            (fun (j : Mcd.job) ->
              Registry.run_all ~spec:j.Mcd.spec j.Mcd.tus)
            jobs
        in
        with_session (fun s ->
            let results, report = Mcheck_api.Session.check_jobs s jobs in
            Alcotest.(check string)
              "same rendering"
              (render_results expected)
              (render_results results);
            Alcotest.(check bool) "corpus has findings" true
              (report.Mcheck_api.r_findings > 0)));
    t "strict parse failure raises Robust_exit" `Quick (fun () ->
        let config = { Mcheck_api.default_config with strict = true } in
        with_session ~config (fun s ->
            match
              Mcheck_api.Session.check_buffer s ~name:"g.c"
                ~contents:"@#$ not C"
            with
            | _ -> Alcotest.fail "expected Robust_exit"
            | exception Mcheck_api.Robust_exit o ->
              Alcotest.(check int) "unusable" 3 (Robust.exit_code o)));
    t "default_spec takes void/no-arg functions as handlers" `Quick
      (fun () ->
        let tus =
          Parsed.ok
            (Frontend.parse_strings
               [
                 ( "s.c",
                   Prelude.text
                   ^ "void H(void) { } int helper(void) { return 1; } void \
                      takes_arg(int x) { x = x; }" );
               ])
        in
        let spec = Mcheck_api.default_spec tus in
        Alcotest.(check (list string))
          "handlers" [ "H" ]
          (List.map
             (fun h -> h.Flash_api.h_name)
             spec.Flash_api.p_handlers));
    t "a unit budget applies at every --jobs" `Quick (fun () ->
        let p = Checks.protocol (Corpus.generate ()) "bitvector" in
        let budgeted jobs =
          let config =
            {
              Mcheck_api.default_config with
              jobs;
              budget = { Engine.fuel = Some 1; deadline_ms = None };
            }
          in
          with_session ~config (fun s ->
              snd
                (Mcheck_api.Session.check_jobs s
                   [ { Mcd.spec = p.Corpus.spec; tus = p.Corpus.tus } ]))
        in
        let r1 = budgeted 1 and r2 = budgeted 2 in
        Alcotest.(check int)
          "jobs 1 is partial"
          (Robust.exit_code Robust.Partial)
          (Robust.exit_code r1.Mcheck_api.r_outcome);
        Alcotest.(check bool) "jobs 1 reports internal diagnostics" true
          (match List.assoc_opt "internal" r1.Mcheck_api.r_results with
          | Some (_ :: _) -> true
          | _ -> false);
        Alcotest.(check string) "jobs 1 = jobs 2" (render r2) (render r1));
    t "one-shot session check of a clean file" `Quick (fun () ->
        let path = write_tmp "api_shim.c" clean_src in
        let s = Mcheck_api.Session.create () in
        let r =
          Fun.protect
            ~finally:(fun () -> Mcheck_api.Session.close s)
            (fun () -> Mcheck_api.Session.check_files s [ path ])
        in
        Alcotest.(check int) "clean" 0
          (Robust.exit_code r.Mcheck_api.r_outcome));
  ]

(* ------------------------------------------------------------------ *)
(* --metal runs through the same scheduler as the built-ins            *)
(* ------------------------------------------------------------------ *)

let load_metal paths =
  match Mcheck_api.load_metal paths with
  | Ok m -> m
  | Error e -> Alcotest.fail e

let in_tree_metal () =
  let dir =
    match Fuzz_metalc.find_spec_dir () with
    | Some d -> d
    | None -> Alcotest.fail "cannot locate metal/"
  in
  load_metal
    (List.map
       (fun n -> Filename.concat dir (n ^ ".metal"))
       [ "wait_for_db"; "msglen_check" ])

let metal_check ?(jobs = 1) ?cache_file ?(budget = Engine.no_budget) metal
    ~spec tus =
  let config =
    {
      Mcheck_api.default_config with
      jobs;
      incremental = cache_file <> None;
      cache_file;
      budget;
      metal;
    }
  in
  with_session ~config (fun s ->
      snd (Mcheck_api.Session.check_jobs s [ { Mcd.spec; tus } ]))

let bitvector () = Checks.protocol (Corpus.generate ()) "bitvector"

let fresh_cache_file () =
  let f = Filename.temp_file "api_metal" ".cache" in
  Sys.remove f;
  f

let metal_cases =
  [
    t "--metal at --jobs 2 equals --jobs 1, on 2 domains" `Quick (fun () ->
        let p = bitvector () and metal = in_tree_metal () in
        let run jobs =
          metal_check ~jobs metal ~spec:p.Corpus.spec p.Corpus.tus
        in
        let r1 = run 1 and r2 = run 2 in
        Alcotest.(check bool) "the specs find something" true
          (r1.Mcheck_api.r_findings > 0);
        Alcotest.(check string) "jobs 1 = jobs 2" (render r1) (render r2);
        Alcotest.(check int) "domains"
          (min 2 (Domain.recommended_domain_count ()))
          r2.Mcheck_api.r_sched.Mcd.domains);
    t "--metal --incremental: a warm run hits every unit" `Quick (fun () ->
        let p = bitvector () and metal = in_tree_metal () in
        let cache_file = fresh_cache_file () in
        let run () =
          metal_check ~cache_file metal ~spec:p.Corpus.spec p.Corpus.tus
        in
        let cold = run () in
        let warm = run () in
        Sys.remove cache_file;
        let st = warm.Mcheck_api.r_sched in
        Alcotest.(check int) "every unit cached" st.Mcd.units_total
          st.Mcd.cache_hits;
        Alcotest.(check bool) "units exist" true (st.Mcd.units_total > 0);
        Alcotest.(check string) "same output" (render cold) (render warm));
    t "--metal: a changed spec with the same name misses the cache" `Quick
      (fun () ->
        let spec_file msg =
          write_tmp "api_same_name.metal"
            (Printf.sprintf
               "sm same { decl { scalar } a;
               \  start: { FOO(a); } ==> { err(\"%s\"); } ; }
"
               msg)
        in
        let tus =
          Parsed.ok
            (Frontend.parse_strings
               [ ("f.c", Prelude.text ^ "void H(void) { long x; FOO(x); }") ])
        in
        let spec = Mcheck_api.default_spec tus in
        let cache_file = fresh_cache_file () in
        let run ?cache_file msg =
          let metal = load_metal [ spec_file msg ] in
          metal_check ?cache_file metal ~spec tus
        in
        let first = run ~cache_file "first" in
        let first_warm = run ~cache_file "first" in
        let second = run ~cache_file "second" in
        Sys.remove cache_file;
        let st = first_warm.Mcheck_api.r_sched in
        Alcotest.(check int) "the same spec hits" st.Mcd.units_total
          st.Mcd.cache_hits;
        Alcotest.(check int) "the changed spec misses" 0
          second.Mcheck_api.r_sched.Mcd.cache_hits;
        Alcotest.(check bool) "the specs disagree" true
          (render first <> render (run "second"));
        Alcotest.(check string) "the changed spec's own output"
          (render (run "second")) (render second));
    t "--metal with --unit-fuel 1 degrades like the built-ins" `Quick
      (fun () ->
        let p = bitvector () and metal = in_tree_metal () in
        let r =
          metal_check
            ~budget:{ Engine.fuel = Some 1; deadline_ms = None }
            metal ~spec:p.Corpus.spec p.Corpus.tus
        in
        Alcotest.(check int) "partial"
          (Robust.exit_code Robust.Partial)
          (Robust.exit_code r.Mcheck_api.r_outcome);
        Alcotest.(check bool) "internal diagnostics" true
          (match List.assoc_opt "internal" r.Mcheck_api.r_results with
          | Some (_ :: _) -> true
          | _ -> false);
        Alcotest.(check bool) "units degraded" true
          (r.Mcheck_api.r_sched.Mcd.units_faulted > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Front-end reuse: warm sessions over one cache file equal cold ones  *)
(* ------------------------------------------------------------------ *)

(* every diagnostic with its witness, then the outcome *)
let explained (r : Mcheck_api.report) =
  String.concat ""
    (List.map
       (Mcheck_api.render_diag
          { Mcheck_api.ro_explain = true; ro_verbose = false; ro_quiet = false })
       (Mcheck_api.report_diags r))
  ^ Robust.to_string r.Mcheck_api.r_outcome

(* [f]'s result and the growth of the [cfront.reuse.*] counters
   [names] *)
let counting names f =
  let r, moved = registry_moved f in
  (r, List.map (fun n -> (n, moved ("cfront.reuse." ^ n))) names)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [f dir] on a fresh temporary directory, removed afterwards *)
let in_temp_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* a program: (file name, text) in check order, written into [dir] *)
let write_program dir files =
  List.map
    (fun (name, src) ->
      let path = Filename.concat dir name in
      Mcheck_api.write_file path src;
      path)
    files

(* one simulated process: a fresh session over the shared cache file *)
let warm_check ?(jobs = 1) cache paths =
  with_session
    ~config:
      {
        Mcheck_api.default_config with
        Mcheck_api.jobs;
        incremental = true;
        cache_file = Some cache;
      }
    (fun s -> Mcheck_api.Session.check_files s paths)

let cold_check paths =
  with_session (fun s -> Mcheck_api.Session.check_files s paths)

let check_warm_is_cold ?jobs what cache paths =
  let cold = cold_check paths in
  let warm = warm_check ?jobs cache paths in
  Alcotest.(check string) what (explained cold) (explained warm);
  warm

let types_c = "typedef int word;\nlong g;\n"
let uses_g = "void H(void) { word w; w = 1; g = g + 1; g = 2; }\n"
let b_c = "void B(void) { word x; x = 2; }\n" ^ buggy_src ^ "\n"

(* the programs an edit sequence visits: each edit applied to the
   program before it *)
let reuse_programs =
  let base = [ ("types.c", types_c); ("a.c", uses_g); ("b.c", b_c) ] in
  let set name src prog =
    List.map (fun (n, s) -> if n = name then (n, src) else (n, s)) prog
  in
  let inert =
    set "a.c" "void H(void) { word w; w = 1; g = g + 1; g = 2; ; }\n" base
  in
  let moved = set "a.c" ("\n\n" ^ uses_g) inert in
  let added = set "b.c" (b_c ^ "void C(void) { word y; y = 3; }\n") moved in
  let removed = set "b.c" b_c added in
  let half_uses = b_c ^ "void D(void) { half h; h = 1; }\n" in
  let typedef_added =
    set "b.c" half_uses (set "types.c" (types_c ^ "typedef unsigned half;\n") removed)
  in
  let typedef_removed = set "types.c" types_c typedef_added in
  let double_g =
    set "types.c" "typedef int word;\ndouble g;\n" typedef_removed
  in
  let reordered =
    match double_g with [ t; a; b ] -> [ t; b; a ] | p -> p
  in
  let renamed =
    List.map (fun (n, s) -> ((if n = "b.c" then "c.c" else n), s)) reordered
  in
  [
    ("fill", base); ("inert body edit", inert); ("line-moving insertion", moved);
    ("function added", added); ("function removed", removed);
    ("typedef added and used", typedef_added);
    ("typedef removed, still used", typedef_removed);
    ("long g -> double g", double_g); ("files reordered", reordered);
    ("file renamed", renamed);
  ]

let reuse_cases =
  [
    t "warm re-checks along an edit sequence equal cold ones" `Quick
      (fun () ->
        in_temp_dir "api_reuse" @@ fun dir ->
        let cache = Filename.concat dir "check.cache" in
        List.iteri
          (fun i (what, prog) ->
            let paths = write_program dir prog in
            let warm, counts =
              counting [ "hit"; "corrupt"; "missing" ] (fun () ->
                  check_warm_is_cold ~jobs:(1 + (i mod 2)) what cache paths)
            in
            Alcotest.(check int) (what ^ ": no blob failed") 0
              (List.assoc "corrupt" counts + List.assoc "missing" counts);
            if what = "long g -> double g" then
              Alcotest.(check int) "the six [no_float] lines" 6
                (List.length
                   (List.filter
                      (fun (d : Diag.t) -> d.Diag.checker = "no_float")
                      (Mcheck_api.report_diags warm)));
            if what = "typedef removed, still used" then
              Alcotest.(check bool) "the unknown type name is a parse error"
                true (warm.Mcheck_api.r_parse <> []);
            (* an unchanged program decodes every file *)
            let _, counts =
              counting [ "hit"; "miss" ] (fun () ->
                  check_warm_is_cold (what ^ ", again") cache paths)
            in
            Alcotest.(check (list (pair string int)))
              (what ^ ": every file reused")
              [ ("hit", List.length prog); ("miss", 0) ]
              counts)
          reuse_programs);
    t "seeded edit walks: warm equals cold" `Quick (fun () ->
        let programs = Array.of_list reuse_programs in
        List.iter
          (fun seed ->
            let rng = Random.State.make [| seed |] in
            in_temp_dir "api_walk" @@ fun dir ->
            let cache = Filename.concat dir "check.cache" in
            for step = 1 to 8 do
              let what, prog =
                programs.(Random.State.int rng (Array.length programs))
              in
              ignore
                (check_warm_is_cold
                   ~jobs:(1 + Random.State.int rng 2)
                   (Printf.sprintf "seed %d step %d (%s)" seed step what)
                   cache (write_program dir prog))
            done)
          [ 1; 2; 3 ]);
    t "a deleted, truncated or flipped blob is parsed again" `Quick (fun () ->
        in_temp_dir "api_blob" @@ fun dir ->
        let cache = Filename.concat dir "check.cache" in
        let paths = write_program dir (snd (List.hd reuse_programs)) in
        let a_c = List.nth paths 1 in
        let blob () =
          let e = Option.get (Mcd_cache.find_unit (Mcd_cache.load cache) a_c) in
          Filename.concat (cache ^ ".ast") e.Mcd_cache.u_blob
        in
        ignore (warm_check cache paths);
        let damage =
          [
            ("missing", fun f -> Sys.remove f);
            ( "corrupt",
              fun f ->
                let s = In_channel.with_open_bin f In_channel.input_all in
                Mcheck_api.write_file f (String.sub s 0 (String.length s / 2)) );
            ( "corrupt",
              fun f ->
                let s =
                  Bytes.of_string (In_channel.with_open_bin f In_channel.input_all)
                in
                let i = Bytes.length s / 2 in
                Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 1));
                Mcheck_api.write_file f (Bytes.to_string s) );
          ]
        in
        List.iter
          (fun (failure, damage) ->
            damage (blob ());
            let _, counts =
              counting [ "hit"; failure ] (fun () ->
                  check_warm_is_cold ("blob " ^ failure) cache paths)
            in
            Alcotest.(check (list (pair string int)))
              ("blob " ^ failure ^ ": one failure, the rest reused")
              [ ("hit", List.length paths - 1); (failure, 1) ]
              counts;
            (* the failed file's blob was written again *)
            let _, counts =
              counting [ "hit" ] (fun () ->
                  check_warm_is_cold "after the failure" cache paths)
            in
            Alcotest.(check int) "every file reused" (List.length paths)
              (List.assoc "hit" counts))
          damage);
    t "a blob keyed under another build is never decoded" `Quick (fun () ->
        in_temp_dir "api_build" @@ fun dir ->
        let cache = Filename.concat dir "check.cache" in
        let prog = snd (List.hd reuse_programs) in
        let paths = write_program dir prog in
        ignore (warm_check cache paths);
        (* index types.c, the first file (empty scope), under another
           build digest's key with a blob of its own, then damage that
           blob: reading it would count as corrupt *)
        let types_path = List.hd paths in
        let c = Mcd_cache.load cache in
        let e = Option.get (Mcd_cache.find_unit c types_path) in
        let u =
          match Mcd_cache.read_unit ~path:cache e with
          | Ok u -> u
          | Error _ -> Alcotest.fail "fresh blob unreadable"
        in
        let key =
          Mcd_cache.unit_key ~build:"another build" ~file:types_path ~scope:[]
            (Prelude.text ^ types_c)
        in
        Alcotest.(check bool) "a different key" true (key <> e.Mcd_cache.u_key);
        Mcd_cache.store_unit c ~file:types_path ~key
          ~typedefs:e.Mcd_cache.u_typedefs ~env:e.Mcd_cache.u_env
          (fst u, [ Diag.make ~checker:"parse" ~loc:Loc.none ~func:"" "other" ]);
        Mcd_cache.save c cache;
        let other = Option.get (Mcd_cache.find_unit (Mcd_cache.load cache) types_path) in
        Mcheck_api.write_file
          (Filename.concat (cache ^ ".ast") other.Mcd_cache.u_blob)
          "not a blob";
        let _, counts =
          counting [ "hit"; "miss"; "corrupt"; "missing" ] (fun () ->
              check_warm_is_cold "other build" cache paths)
        in
        Alcotest.(check (list (pair string int)))
          "a miss, never a read"
          [ ("hit", List.length paths - 1); ("miss", 1); ("corrupt", 0);
            ("missing", 0) ]
          counts;
        Alcotest.(check bool) "its blob was pruned" false
          (Sys.file_exists
             (Filename.concat (cache ^ ".ast") other.Mcd_cache.u_blob)));
  ]

let suite = ("api", session_cases @ metal_cases @ reuse_cases)
