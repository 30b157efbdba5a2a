(** Mcd scheduler tests: the domain pool runs every task exactly once,
    parallel runs are identical (and identically ordered) to the
    sequential engine on the full corpus — including the CI-forced
    [--jobs 2] configuration — and cache invalidation after a random
    single-function edit re-runs exactly the affected work units. *)

let t = Alcotest.test_case
let corpus = lazy (Corpus.generate ())

(* flatten results to comparable strings: checker names interleaved with
   rendered diagnostics, so both content and order are checked *)
let render (results : (string * Diag.t list) list) : string list =
  List.concat_map
    (fun (name, ds) -> name :: List.map Diag.to_string ds)
    results

let sequential (p : Corpus.protocol) =
  Registry.run_all ~spec:p.Corpus.spec p.Corpus.tus

let jobs_of_corpus c =
  List.map
    (fun (p : Corpus.protocol) ->
      { Mcd.spec = p.Corpus.spec; tus = p.Corpus.tus })
    c.Corpus.protocols

(* ------------------------------------------------------------------ *)
(* the work pool                                                       *)
(* ------------------------------------------------------------------ *)

let pool_tests =
  [
    t "every task runs exactly once" `Quick (fun () ->
        let n = 97 in
        let hits = Array.make n 0 in
        let m = Mutex.create () in
        let tasks =
          Array.init n (fun i _ ->
              Mutex.lock m;
              hits.(i) <- hits.(i) + 1;
              Mutex.unlock m)
        in
        let stats = Mcd_pool.run ~domains:4 tasks in
        Array.iteri
          (fun i h ->
            Alcotest.(check int) (Printf.sprintf "task %d" i) 1 h)
          hits;
        let total =
          Array.fold_left
            (fun acc (w : Mcd_pool.worker_stats) -> acc + w.tasks_done)
            0 stats
        in
        Alcotest.(check int) "tasks accounted per-domain" n total);
    t "task exception is re-raised after join" `Quick (fun () ->
        let tasks =
          Array.init 8 (fun i _ -> if i = 3 then failwith "boom")
        in
        Alcotest.check_raises "boom" (Failure "boom") (fun () ->
            ignore (Mcd_pool.run ~domains:2 tasks)));
  ]

(* ------------------------------------------------------------------ *)
(* parallel = sequential on the full corpus                            *)
(* ------------------------------------------------------------------ *)

let identity_tests =
  [
    t "jobs 1/2/4 identical to sequential (full corpus)" `Slow (fun () ->
        let c = Lazy.force corpus in
        let expected =
          List.map (fun p -> render (sequential p)) c.Corpus.protocols
        in
        List.iter
          (fun domains ->
            let results, stats =
              Mcd.check_jobs ~jobs:domains (jobs_of_corpus c)
            in
            Alcotest.(check int)
              (Printf.sprintf "no cache => no hits (jobs %d)" domains)
              0 stats.Mcd.cache_hits;
            Alcotest.(check int)
              (Printf.sprintf "all units run (jobs %d)" domains)
              stats.Mcd.units_total stats.Mcd.units_run;
            List.iteri
              (fun i per_protocol ->
                Alcotest.(check (list string))
                  (Printf.sprintf "protocol %d, jobs %d" i domains)
                  (List.nth expected i)
                  (render per_protocol))
              results)
          [ 1; 2; 4 ]);
  ]

(* ------------------------------------------------------------------ *)
(* incremental invalidation                                            *)
(* ------------------------------------------------------------------ *)

(* append a harmless marker statement to the [idx]-th function (in the
   same source order the scheduler enumerates) *)
let edit_nth_function (tus : Ast.tunit list) (idx : int) :
    Ast.tunit list * string =
  let count = ref 0 in
  let edited = ref "" in
  let tus' =
    List.map
      (fun tu ->
        {
          tu with
          Ast.tu_globals =
            List.map
              (function
                | Ast.Gfunc f ->
                  let i = !count in
                  incr count;
                  if i = idx then begin
                    edited := f.Ast.f_name;
                    Ast.Gfunc
                      (Ast.with_body f
                         (f.Ast.f_body
                         @ [ Ast.mk_stmt (Ast.Sexpr (Ast.int_lit 424242)) ]))
                  end
                  else Ast.Gfunc f
                | g -> g)
              tu.Ast.tu_globals;
        })
      tus
  in
  (tus', !edited)

let per_function_checkers =
  List.length
    (List.filter
       (fun (c : Registry.checker) ->
         match c.Registry.phase with
         | Registry.Per_function _ -> true
         | Registry.Whole_program _ -> false)
       Registry.all)

let whole_program_checkers = List.length Registry.all - per_function_checkers

(* the protocol the property edits, its cold-filled cache, and the set of
   functions whose edit invalidates the whole-program checkers *)
let incr_base =
  lazy
    (let p = Checks.protocol (Lazy.force corpus) "bitvector" in
     let job = { Mcd.spec = p.Corpus.spec; tus = p.Corpus.tus } in
     let cache = Mcd_cache.create () in
     let _, cold = Mcd.check_jobs ~cache ~jobs:1 [ job ] in
     let cg = Callgraph.build p.Corpus.tus in
     let roots =
       List.map
         (fun (h : Flash_api.handler_spec) -> h.Flash_api.h_name)
         p.Corpus.spec.Flash_api.p_handlers
     in
     let reach = Callgraph.reachable_from cg roots in
     let nfuncs =
       List.fold_left
         (fun acc tu -> acc + List.length (Ast.functions tu))
         0 p.Corpus.tus
     in
     (p, cache, cold, reach, nfuncs))

let prop_invalidation_is_exact =
  QCheck.Test.make ~count:8
    ~name:"warm re-check after one edit re-runs exactly the affected units"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let p, cache, cold, reach, nfuncs = Lazy.force incr_base in
      let idx = seed mod nfuncs in
      let tus', edited = edit_nth_function p.Corpus.tus idx in
      let results, warm =
        Mcd.check_jobs ~cache:(Mcd_cache.copy cache) ~jobs:2
          [ { Mcd.spec = p.Corpus.spec; tus = tus' } ]
      in
      let lanes_rerun =
        if List.mem edited reach then whole_program_checkers else 0
      in
      (* one function-batched unit for the edited function (all
         per-function checkers share it), plus the whole-program units
         when the edit is in their dependency closure *)
      let expected_run = 1 + lanes_rerun in
      if warm.Mcd.units_run <> expected_run then
        QCheck.Test.fail_reportf
          "edited %s (idx %d): %d units re-ran, expected %d" edited idx
          warm.Mcd.units_run expected_run;
      if warm.Mcd.cache_hits <> cold.Mcd.units_total - expected_run then
        QCheck.Test.fail_reportf "hits %d, expected %d" warm.Mcd.cache_hits
          (cold.Mcd.units_total - expected_run);
      let fresh = Registry.run_all ~spec:p.Corpus.spec tus' in
      render (List.hd results) = render fresh)

let incremental_tests =
  [
    t "unedited warm re-check is all hits" `Quick (fun () ->
        let p, cache, cold, _, _ = Lazy.force incr_base in
        let results, warm =
          Mcd.check_jobs ~cache:(Mcd_cache.copy cache) ~jobs:2
            [ { Mcd.spec = p.Corpus.spec; tus = p.Corpus.tus } ]
        in
        Alcotest.(check int) "no units re-run" 0 warm.Mcd.units_run;
        Alcotest.(check int)
          "all hits" cold.Mcd.units_total warm.Mcd.cache_hits;
        Alcotest.(check (list string))
          "diags identical"
          (render (sequential p))
          (render (List.hd results)));
    t "a warm re-check that runs no unit uses one domain" `Quick (fun () ->
        let p, cache, cold, _, _ = Lazy.force incr_base in
        let before = Mcobs.metrics () in
        let results, warm =
          Mcd.check_jobs ~cache:(Mcd_cache.copy cache) ~jobs:2
            [ { Mcd.spec = p.Corpus.spec; tus = p.Corpus.tus } ]
        in
        let moved =
          (Mcobs.diff (Mcobs.metrics ()) before).Mcobs.m_counters
        in
        let moved name = Option.value ~default:0 (List.assoc_opt name moved) in
        Alcotest.(check (list string))
          "diags identical"
          (render (sequential p))
          (render (List.hd results));
        Alcotest.(check int) "one domain" 1 warm.Mcd.domains;
        Alcotest.(check int) "one worker" 1 (Array.length warm.Mcd.workers);
        (* the registry counts what the stats record reports, once *)
        Alcotest.(check (list int))
          "units scheduled, hit, run, faulted"
          [ cold.Mcd.units_total; cold.Mcd.units_total; 0; 0 ]
          (List.map moved
             [
               "mcheck_unit_cache_probes_total";
               "mcheck_unit_cache_hits_total";
               "mcheck_units_run_total";
               "mcheck_units_faulted_total";
             ]));
    t "cache survives save/load" `Quick (fun () ->
        let p, cache, _, _, _ = Lazy.force incr_base in
        let file = Filename.temp_file "mcd_cache" ".bin" in
        Fun.protect
          ~finally:(fun () -> Sys.remove file)
          (fun () ->
            Mcd_cache.save cache file;
            let reloaded = Mcd_cache.load file in
            Alcotest.(check int)
              "same size" (Mcd_cache.size cache) (Mcd_cache.size reloaded);
            let _, warm =
              Mcd.check_jobs ~cache:reloaded ~jobs:1
                [ { Mcd.spec = p.Corpus.spec; tus = p.Corpus.tus } ]
            in
            Alcotest.(check int) "no units re-run" 0 warm.Mcd.units_run));
    t "stale cache file loads as empty" `Quick (fun () ->
        let file = Filename.temp_file "mcd_cache" ".bin" in
        Fun.protect
          ~finally:(fun () -> Sys.remove file)
          (fun () ->
            let oc = open_out file in
            output_string oc "not a cache";
            close_out oc;
            Alcotest.(check int) "empty" 0
              (Mcd_cache.size (Mcd_cache.load file))));
    QCheck_alcotest.to_alcotest prop_invalidation_is_exact;
    t "multi-writer directory: publish, merge, corruption tolerated" `Quick
      (fun () ->
        let _, cache, _, _, _ = Lazy.force incr_base in
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "mcd-dir-%d" (Unix.getpid ()))
        in
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        Fun.protect
          ~finally:(fun () ->
            Array.iter
              (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
              (Sys.readdir dir);
            try Unix.rmdir dir with _ -> ())
          (fun () ->
            (* two writers with disjoint extra entries publish segments *)
            let w1 = Mcd_cache.copy cache and w2 = Mcd_cache.create () in
            Mcd_cache.add w2 "only-in-w2" [| [] |];
            let seg1 =
              match Mcd_cache.publish_dir w1 dir with
              | Ok (Some p) -> p
              | Ok None -> Alcotest.fail "publish w1: nothing published"
              | Error e -> Alcotest.failf "publish w1: %s" e
            in
            (match Mcd_cache.publish_dir w2 dir with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "publish w2: %s" e);
            (* an identical publish deduplicates to the same segment *)
            (match Mcd_cache.publish_dir (Mcd_cache.copy cache) dir with
            | Ok p -> Alcotest.(check (option string)) "dedup" (Some seg1) p
            | Error e -> Alcotest.failf "identical publish: %s" e);
            (* with nothing added since, a re-publish writes nothing *)
            (match Mcd_cache.publish_dir w1 dir with
            | Ok p -> Alcotest.(check (option string)) "nothing new" None p
            | Error e -> Alcotest.failf "re-publish: %s" e);
            (* a corrupt segment must be skipped, not fatal *)
            let oc = open_out (Filename.concat dir "seg-dead.mc") in
            output_string oc "garbage segment";
            close_out oc;
            let merged = Mcd_cache.load_dir dir in
            Alcotest.(check int)
              "all writers' entries merged"
              (Mcd_cache.size w1 + Mcd_cache.size w2)
              (Mcd_cache.size merged);
            Alcotest.(check bool) "w2's entry present" true
              (Mcd_cache.find merged "only-in-w2" <> None);
            (* in-memory merge folds the other writer's entries in *)
            Mcd_cache.merge ~into:w1 w2;
            Alcotest.(check bool) "merge picked up the entry" true
              (Mcd_cache.find w1 "only-in-w2" <> None);
            (* a missing directory is cold data, never an error *)
            Alcotest.(check int) "missing dir loads empty" 0
              (Mcd_cache.size (Mcd_cache.load_dir "/no/such/dir"))));
    t "multi-writer directory: a re-publish writes only new entries" `Quick
      (fun () ->
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "mcd-delta-%d" (Unix.getpid ()))
        in
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        Fun.protect
          ~finally:(fun () ->
            Array.iter
              (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
              (Sys.readdir dir);
            try Unix.rmdir dir with _ -> ())
          (fun () ->
            let publish c =
              match Mcd_cache.publish_dir c dir with
              | Ok (Some seg) -> seg
              | Ok None -> Alcotest.fail "nothing published"
              | Error e -> Alcotest.failf "publish: %s" e
            in
            let w = Mcd_cache.create () in
            Mcd_cache.add w "a" [| [] |];
            Mcd_cache.add w "b" [| [] |];
            (* entries merged from other segments are already on disk *)
            let other = Mcd_cache.create () in
            Mcd_cache.add other "merged" [| [] |];
            Mcd_cache.merge ~into:w other;
            let seg1 = publish w in
            Alcotest.(check int) "first segment: the two added entries" 2
              (Mcd_cache.size (Mcd_cache.load seg1));
            Mcd_cache.add w "c" [| [] |];
            let seg2 = publish w in
            Alcotest.(check int) "second segment: the one new entry" 1
              (Mcd_cache.size (Mcd_cache.load seg2));
            let union = Mcd_cache.load_dir dir in
            Alcotest.(check (list bool)) "load_dir returns the union"
              [ true; true; true ]
              (List.map
                 (fun k -> Mcd_cache.find union k <> None)
                 [ "a"; "b"; "c" ])));
    t "multi-writer directory: a failed publish keeps its entries pending"
      `Quick (fun () ->
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "mcd-pending-%d" (Unix.getpid ()))
        in
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists dir then begin
              Array.iter
                (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
                (Sys.readdir dir);
              try Unix.rmdir dir with _ -> ()
            end)
          (fun () ->
            let w = Mcd_cache.create () in
            Mcd_cache.add w "a" [| [] |];
            (* a copy carries the pending entries; the original keeps them *)
            let c = Mcd_cache.copy w in
            (match Mcd_cache.publish_dir c dir with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "publish into a missing directory");
            Unix.mkdir dir 0o755;
            Mcd_cache.add c "b" [| [] |];
            let seg =
              match Mcd_cache.publish_dir c dir with
              | Ok (Some seg) -> seg
              | Ok None -> Alcotest.fail "nothing published after the error"
              | Error e -> Alcotest.failf "publish: %s" e
            in
            Alcotest.(check int) "the failed entry and the new one" 2
              (Mcd_cache.size (Mcd_cache.load seg));
            (match Mcd_cache.publish_dir w dir with
            | Ok (Some s) ->
              Alcotest.(check bool) "the original still holds its entry" true
                (Mcd_cache.find (Mcd_cache.load s) "a" <> None)
            | Ok None -> Alcotest.fail "the original lost its pending entry"
            | Error e -> Alcotest.failf "publish original: %s" e)));
  ]

(* ------------------------------------------------------------------ *)
(* exact keys: a warm re-check after an edit equals a cold one        *)
(* ------------------------------------------------------------------ *)

(* source files as the CLI reads them: prelude prepended, one job under
   the default spec *)
let job_from_files files =
  let tus, _ =
    Frontend.parse_strings
      (List.map (fun (name, src) -> (name, Prelude.text ^ src)) files)
  in
  { Mcd.spec = Mcheck_api.default_spec tus; tus }

let check_files ?cache files =
  List.hd (fst (Mcd.check_jobs ?cache ~jobs:1 [ job_from_files files ]))

(* fill a cache from [before], then check [after] against it and cold;
   returns the renderings of [before], warm [after] and cold [after] *)
let warm_and_cold before after =
  let cache = Mcd_cache.create () in
  let filled = check_files ~cache before in
  let warm = check_files ~cache after in
  let cold = check_files after in
  (render filled, render warm, cold)

let n_diags checker results = List.length (List.assoc checker results)

let handler_with_sends n =
  "void H() { HANDLER_DEFS(); SIM_HANDLER_HOOK();"
  ^ String.concat ""
      (List.init n (fun _ -> " NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, 0);"))
  ^ " }\n"

let use_g = "void H() { g = g + 1; g = 2; }\n"

let key_tests =
  [
    t "lanes key digests the definition lanes analyses" `Quick (fun () ->
        (* two definitions of H: lanes reads the last one, so an edit to
           it must re-run the lanes unit *)
        let a = ("a.c", handler_with_sends 0) in
        let _, warm, cold =
          warm_and_cold
            [ a; ("b.c", handler_with_sends 1) ]
            [ a; ("b.c", handler_with_sends 2) ]
        in
        Alcotest.(check int) "cold reports the lanes overflow" 1
          (n_diags "lanes" cold);
        Alcotest.(check (list string)) "warm = cold" (render cold) warm);
    t "a global's type change re-runs the functions using it" `Quick
      (fun () ->
        let b = ("b.c", use_g) in
        let _, warm, cold =
          warm_and_cold
            [ ("a.c", "long g;\n"); b ]
            [ ("a.c", "double g;\n"); b ]
        in
        Alcotest.(check int) "cold reports the float uses" 6
          (n_diags "no_float" cold);
        Alcotest.(check (list string)) "warm = cold" (render cold) warm);
    t "an in-line whitespace edit gives fresh columns" `Quick (fun () ->
        let a = ("a.c", "double g;\n") in
        let before, warm, cold =
          warm_and_cold
            [ a; ("b.c", use_g) ]
            [ a; ("b.c", "void H() { g  =  g  +  1; g = 2; }\n") ]
        in
        Alcotest.(check bool) "columns moved" true (before <> render cold);
        Alcotest.(check (list string)) "warm = cold" (render cold) warm);
    t "a function moved down one line gets fresh locations" `Quick
      (fun () ->
        let a = ("a.c", "double g;\n") in
        let before, warm, cold =
          warm_and_cold [ a; ("b.c", use_g) ] [ a; ("b.c", "\n" ^ use_g) ]
        in
        Alcotest.(check bool) "lines moved" true (before <> render cold);
        Alcotest.(check (list string)) "warm = cold" (render cold) warm);
    t "spec keys digest content, not sharing" `Quick (fun () ->
        (* two handlers sharing one lane-allowance array, then the same
           spec with one copy per handler: equal specs, equal keys *)
        let job =
          job_from_files [ ("a.c", "void H1() { }\nvoid H2() { }\n") ]
        in
        let with_allowance alloc =
          {
            job with
            Mcd.spec =
              {
                job.Mcd.spec with
                Flash_api.p_handlers =
                  List.map
                    (fun h -> { h with Flash_api.h_lane_allowance = alloc () })
                    job.Mcd.spec.Flash_api.p_handlers;
              };
          }
        in
        let shared = [| 1; 1; 1; 1 |] in
        let cache = Mcd_cache.create () in
        let _, cold =
          Mcd.check_jobs ~cache ~jobs:1 [ with_allowance (fun () -> shared) ]
        in
        let _, warm =
          Mcd.check_jobs ~cache ~jobs:1
            [ with_allowance (fun () -> Array.copy shared) ]
        in
        Alcotest.(check int) "two batches and lanes" 3 cold.Mcd.units_total;
        Alcotest.(check int) "every unit hits" cold.Mcd.units_total
          warm.Mcd.cache_hits);
    t "a body-rewriting copy never hits its original's entry" `Quick
      (fun () ->
        let job = job_from_files [ ("b.c", use_g) ] in
        let cache = Mcd_cache.create () in
        let _, cold = Mcd.check_jobs ~cache ~jobs:1 [ job ] in
        let stored = Mcd_cache.size cache in
        (* an identical body: only the copy itself differs *)
        let copy =
          List.map
            (fun tu ->
              {
                tu with
                Ast.tu_globals =
                  List.map
                    (function
                      | Ast.Gfunc f -> Ast.Gfunc (Ast.with_body f f.Ast.f_body)
                      | g -> g)
                    tu.Ast.tu_globals;
              })
            job.Mcd.tus
        in
        let _, warm =
          Mcd.check_jobs ~cache ~jobs:1 [ { job with Mcd.tus = copy } ]
        in
        (* H's batch, and the lanes unit whose closure holds H *)
        Alcotest.(check int) "every unit re-ran" cold.Mcd.units_total
          warm.Mcd.units_run;
        Alcotest.(check int) "nothing stored" stored (Mcd_cache.size cache));
  ]

let suite =
  ( "mcd",
    pool_tests @ identity_tests @ incremental_tests @ key_tests )
