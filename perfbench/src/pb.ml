(* pb — the attribution benchmark's runner.  perfbench/run.py builds it
   and calls [pb run]; [pb golden] regenerates perfbench/expected.tsv.

   pb run --workload W --seed N --seconds S --trace 0|1 --bin DIR
          --expected FILE --out DIR [--rev REV]
     runs in the current (scratch) directory, prints the report and,
     last, the JSON result line
   pb golden FILE
     writes the expected-output table for every corpus seed

   Why each workload exists, and which numbers should move on it, is in
   BENCHMARK.json and perfbench/REPORT.md. *)

open Perfbench
module Session = Mcheck_api.Session
module Proto = Serve.Proto
module Client = Serve.Client

let nproc = Domain.recommended_domain_count ()

(* The corpus is one of [corpus_seeds] generated corpora, picked by the
   run seed, so that every seed has a checked-in expected output; the
   edits and the arrival times use the whole seed. *)
let corpus_seeds = 16

let corpus_seed seed =
  ((seed mod corpus_seeds) + corpus_seeds) mod corpus_seeds

(* edit-serve's fixed offered load: about half the capacity of the
   default two-worker daemon, measured closed-loop on a 2-core host *)
let serve_rate = 15.

(* the default supervised pool, with one connection per worker and at
   most one per core *)
let serve_workers = 2
let serve_conns = max 1 (min nproc serve_workers)
let setup_reps = 3
let now = Unix.gettimeofday
let ms_since t0 = (now () -. t0) *. 1000.
let md5 s = Digest.to_hex (Digest.string s)
let read_file = Procs.read_file

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let contains s p =
  let n = String.length s and m = String.length p in
  let rec at i = i + m <= n && (String.sub s i m = p || at (i + 1)) in
  at 0

let mean xs =
  Array.fold_left ( +. ) 0. xs /. float_of_int (max 1 (Array.length xs))

(* ------------------------------------------------------------------ *)
(* Metrics, outcomes, and the report                                   *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; s : Stats.summary }

let collected : metric list ref = ref []

let record name unit_ s =
  collected :=
    { name; unit_; s } :: List.filter (fun m -> m.name <> name) !collected

let sample name unit_ xs = record name unit_ (Stats.summarize xs)
let single name unit_ v = sample name unit_ [| v |]

(* a percentile of [xs], reported with the sample count behind it *)
let pct name unit_ p xs =
  let v = Stats.quantile xs p in
  record name unit_ { Stats.n = Array.length xs; median = v; q1 = v; q3 = v }

let value name =
  match List.find_opt (fun m -> m.name = name) !collected with
  | Some m -> m.s.Stats.median
  | None -> Float.nan

let attempted = ref 0
let failed = ref 0
let problems = ref []
let problem msg = problems := msg :: !problems

let outcome ok msg =
  incr attempted;
  if not ok then begin
    incr failed;
    problem msg
  end

let end_to_end = [ "check_ms"; "check_p95_ms"; "peak_rss_mb"; "setup_s" ]

let layers =
  [ "cfront"; "cfg"; "engine"; "checkers"; "mcd"; "mcd_cache"; "api"; "serve" ]

(* the traced run's contract metrics; the ones a workload may not touch
   at all (cache, wire, supervisor) are counts or fractions, and read 0
   there *)
let per_layer =
  [
    "cfront.lex_ms"; "cfront.parse_ms"; "cfront.typecheck_ms"; "cfront.tokens";
    "cfront.tokens_per_s"; "cfg.prep_ms"; "cfg.callgraph_ms"; "cfg.nodes";
    "cfg.events"; "engine.scan_ms"; "engine.dirty_frac"; "engine.overflows";
    "checkers.diags"; "mcd.wall_ms"; "mcd.speedup"; "mcd.busy_frac";
    "mcd.units_run"; "mcd.units_total"; "mcd_cache.probes";
    "mcd_cache.hit_frac"; "mcd_cache.bytes"; "api.render_ms"; "api.check_ms";
    "serve.bytes_per_req"; "serve.shed"; "supervise.retries";
    "supervise.respawns"; "trace.wall_ms"; "trace.unattributed_ms";
    "trace.overhead_ms";
  ]
  @ List.map (fun l -> "self." ^ l ^ "_frac") layers

(* the contract counts a workload can bypass entirely, so never records *)
let bypassable =
  [
    ("mcd_cache.probes", "count"); ("mcd_cache.hit_frac", "frac");
    ("mcd_cache.bytes", "B"); ("serve.bytes_per_req", "B");
    ("serve.shed", "count"); ("supervise.retries", "count");
    ("supervise.respawns", "count");
  ]

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  mcheck : string;
  mcheckd : string;
  expected : (int * string, string) Hashtbl.t;
  out_dir : string;
  rev : string;
}

let print_report ctx =
  Printf.printf "perfbench workload=%s seed=%d corpus_seed=%d seconds=%g \
                 trace=%d rev=%s\n"
    ctx.workload ctx.seed (corpus_seed ctx.seed) ctx.seconds
    (if ctx.trace then 1 else 0)
    ctx.rev;
  Printf.printf "host cores=%d ocaml=%s hostname=%s edit_serve_rate=%g/s \
                 connections=%d workers=%d\n"
    nproc Sys.ocaml_version (Unix.gethostname ()) serve_rate serve_conns
    serve_workers;
  Printf.printf "operations attempted=%d failed=%d failed_frac=%g\n"
    !attempted !failed
    (float_of_int !failed /. float_of_int (max 1 !attempted));
  List.iteri
    (fun i p -> if i < 10 then Printf.printf "problem: %s\n" p)
    (List.rev !problems);
  Printf.printf "%-30s %-6s %6s %14s %14s %14s\n" "metric" "unit" "n" "median"
    "q1" "q3";
  List.iter
    (fun m ->
      Printf.printf "%-30s %-6s %6d %14.4f %14.4f %14.4f\n" m.name m.unit_
        m.s.Stats.n m.s.Stats.median m.s.Stats.q1 m.s.Stats.q3)
    (List.sort (fun a b -> compare a.name b.name) !collected)

let print_result ctx =
  let names = if ctx.trace then per_layer else end_to_end in
  let field n =
    match List.find_opt (fun m -> m.name = n) !collected with
    | Some m when Float.is_finite m.s.Stats.median ->
      Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" n
        m.s.Stats.median m.unit_
    | _ -> failwith ("metric not measured: " ^ n)
  in
  let fields = List.map field names in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!problems = []) (max 1 !attempted) !failed (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Inputs and expected answers                                         *)
(* ------------------------------------------------------------------ *)

let gen ctx = Corpus.generate ~seed:(corpus_seed ctx.seed) ()

let corpus_texts (c : Corpus.t) =
  List.concat_map (fun (p : Corpus.protocol) -> p.Corpus.files) c.Corpus.protocols

let corpus_files c = List.map fst (corpus_texts c)
let ropts = { Mcheck_api.ro_explain = false; ro_verbose = false; ro_quiet = true }

(* exactly what [mcheck -q] prints and a Check_buffer reply carries *)
let render diags = String.concat "" (List.map (Mcheck_api.render_diag ropts) diags)

(* expected.tsv rows: corpus seed, input ("*" = every file through
   mcheck; a file name = that file checked alone), diagnostic count, md5
   of the rendered output *)
let load_expected path =
  let t = Hashtbl.create 512 in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ s; input; _; digest ] when not (String.starts_with ~prefix:"#" line) ->
        Hashtbl.replace t (int_of_string s, input) digest
      | _ -> ())
    (String.split_on_char '\n' (read_file path));
  t

let expect ctx input =
  match Hashtbl.find_opt ctx.expected (corpus_seed ctx.seed, input) with
  | Some d -> d
  | None -> failwith ("no expected output for " ^ input)

let golden out =
  let oc = open_out out in
  output_string oc
    "# corpus seed\tinput\tdiagnostics\tmd5 of the rendered output\n\
     # input * is mcheck over every file; a file name is that file checked \
     alone as a buffer\n";
  for s = 0 to corpus_seeds - 1 do
    let c = Corpus.generate ~seed:s () in
    Corpus.write_to_dir c ".";
    let texts = corpus_texts c in
    let session = Session.create () in
    let row input (r : Mcheck_api.report) =
      let ds = Mcheck_api.report_diags r in
      Printf.fprintf oc "%d\t%s\t%d\t%s\n%!" s input (List.length ds)
        (md5 (render ds))
    in
    row "*" (Session.check_files session (List.map fst texts));
    List.iter
      (fun (name, src) -> row name (Session.check_buffer session ~name ~contents:src))
      texts;
    List.iter (fun (name, _) -> Sys.remove name) texts
  done;
  close_out oc

(* every seeded Bug site must be reported by its own checker, in its own
   function, in one of its protocol's files — checked on the rendered
   lines, independently of the expected digests.  Lanes bugs are out of
   reach here: file mode gives every handler the default lane allowance,
   not its protocol's, so the lanes checker cannot see them. *)
let check_recall (c : Corpus.t) rendered =
  let lines = String.split_on_char '\n' rendered in
  List.iter
    (fun (p : Corpus.protocol) ->
      let files = List.map (fun (f, _) -> f ^ ":") p.Corpus.files in
      List.iter
        (fun (e : Manifest.entry) ->
          let hit l =
            List.exists (fun prefix -> String.starts_with ~prefix l) files
            && contains l ("[" ^ e.Manifest.checker ^ "]")
            && String.ends_with ~suffix:("(in " ^ e.Manifest.func ^ ")") l
          in
          if
            e.Manifest.kind = Manifest.Bug
            && e.Manifest.checker <> "lanes"
            && not (List.exists hit lines)
          then
            problem
              (Printf.sprintf "seeded bug not reported: %s in %s/%s"
                 e.Manifest.checker p.Corpus.name e.Manifest.func))
        p.Corpus.manifest)
    c.Corpus.protocols

(* ------------------------------------------------------------------ *)
(* Set-up and measurement loops                                        *)
(* ------------------------------------------------------------------ *)

(* set up [setup_reps] times, tearing down all but the last; setup_s is
   the median *)
let repeat_setup ?(teardown = ignore) f =
  let times = Array.make setup_reps 0. in
  let rec go i prev =
    Option.iter teardown prev;
    let t0 = now () in
    let x = f () in
    times.(i) <- now () -. t0;
    if i + 1 = setup_reps then x else go (i + 1) (Some x)
  in
  let x = go 0 None in
  sample "setup_s" "s" times;
  x

(* repeat [f] until [seconds] have passed, at least [min_reps] times *)
let for_seconds ?(min_reps = 3) seconds f =
  let t0 = now () in
  let rec go i acc =
    if i >= min_reps && now () -. t0 >= seconds then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

let mcheck_argv ctx ~incremental files =
  Array.of_list
    ([ ctx.mcheck; "-q"; "--jobs"; string_of_int nproc ]
    @ (if incremental then [ "--incremental"; "--cache"; "cache.mc" ] else [])
    @ files)

(* one fresh mcheck process; exit 1 is "findings", the expected verdict *)
let run_mcheck argv ~expect =
  let r = Procs.run ~stdout_file:"out.txt" ~stderr_file:"err.txt" argv in
  let out = read_file "out.txt" in
  let ok = r.Procs.code = 1 && String.equal (md5 out) expect in
  (r, out, ok)

let process_metrics runs =
  let walls = Array.of_list (List.map (fun r -> r.Procs.wall_ms) runs) in
  sample "check_ms" "ms" walls;
  pct "check_p95_ms" "ms" 0.95 walls;
  sample "peak_rss_mb" "MiB"
    (Array.of_list (List.map (fun r -> r.Procs.peak_rss_mb) runs))

(* ------------------------------------------------------------------ *)
(* Traced replays: the program's calls, one public function at a time  *)
(* ------------------------------------------------------------------ *)

(* per-repetition accumulators: [span] times one public call (and
   records it as an Mcobs span when tracing is on), [note] adds to a
   count *)
let rep_acc : (string, string * float) Hashtbl.t = Hashtbl.create 64
let rep_samples : (string, string * float list) Hashtbl.t = Hashtbl.create 64

let note name unit_ v =
  let v0 = match Hashtbl.find_opt rep_acc name with Some (_, x) -> x | None -> 0. in
  Hashtbl.replace rep_acc name (unit_, v0 +. v)

let span name f =
  let t0 = now () in
  let r = Mcobs.with_span name f in
  note (name ^ "_ms") "ms" (ms_since t0);
  r

(* One warm-up, then [reps] pairs of an untraced and a traced
   repetition of [one i] — paired, so drift over the run cancels out of
   the overhead — each with its own [i] so that no repetition finds an
   earlier one's work in a cache.  Call metrics are medians over the
   traced repetitions; the self-time lines are per-repetition means of
   the span tree, which add up exactly. *)
let replays ctx ~reps one =
  let rep ~traced i =
    Hashtbl.reset rep_acc;
    Mcobs.set_enabled traced;
    let t0 = now () in
    if traced then Mcobs.with_span "replay" (fun () -> one i) else one i;
    let wall = ms_since t0 in
    Mcobs.set_enabled false;
    if traced then
      Hashtbl.iter
        (fun name (u, v) ->
          let _, vs =
            Option.value ~default:(u, []) (Hashtbl.find_opt rep_samples name)
          in
          Hashtbl.replace rep_samples name (u, v :: vs))
        rep_acc;
    wall
  in
  ignore (rep ~traced:false 0);
  Mcobs.reset ();
  let pairs =
    Array.init reps (fun k ->
        let u = rep ~traced:false ((2 * k) + 1) in
        (u, rep ~traced:true ((2 * k) + 2)))
  in
  let untraced = Array.map fst pairs and traced = Array.map snd pairs in
  Hashtbl.iter
    (fun name (u, vs) -> sample name u (Array.of_list vs))
    rep_samples;
  let snap = Mcobs.snapshot () in
  Mcobs.export_chrome_file
    (Filename.concat ctx.out_dir
       (Printf.sprintf "trace-%s-seed%d.json" ctx.workload ctx.seed))
    snap;
  let a =
    Attrib.attribute ~tid:(Domain.self () :> int) ~root:"replay"
      snap.Mcobs.spans
  in
  let per_rep us = us /. 1000. /. float_of_int reps in
  let layer_us l = Option.value ~default:0. (List.assoc_opt l a.Attrib.layers) in
  single "trace.wall_ms" "ms" (per_rep a.Attrib.wall_us);
  single "trace.unattributed_ms" "ms" (per_rep a.Attrib.unattributed_us);
  single "trace.overhead_ms" "ms" (mean traced -. mean untraced);
  single "trace.untraced_ms" "ms" (mean untraced);
  single "trace.dropped_spans" "count" (float_of_int snap.Mcobs.dropped_spans);
  List.iter
    (fun (l, us) -> single ("self." ^ l ^ "_ms") "ms" (per_rep us))
    a.Attrib.layers;
  List.iter
    (fun l -> single ("self." ^ l ^ "_frac") "frac" (layer_us l /. a.Attrib.wall_us))
    layers;
  let attributed =
    List.fold_left (fun acc (_, us) -> acc +. us) 0. a.Attrib.layers
  in
  single "trace.reconcile_err_ms" "ms"
    (per_rep (a.Attrib.wall_us -. a.Attrib.unattributed_us -. attributed));
  let tokens = value "cfront.tokens" and lex = value "cfront.lex_ms" in
  single "cfront.tokens_per_s" "1/s" (tokens /. (lex /. 1000.))

(* the front end call by call: the lexer alone (for the token count),
   the recovering parser the pipeline uses, and a second type-annotation
   pass timed on its own.  [Frontend.parse_strings] lexes and annotates
   inside, so lex and typecheck time are also part of parse time. *)
let front_end srcs =
  let tokens =
    span "cfront.lex" (fun () ->
        List.fold_left
          (fun n (file, src) ->
            n + List.length (fst (Lexer.tokens_recovering ~file src)))
          0 srcs)
  in
  let tus, pdiags = span "cfront.parse" (fun () -> Frontend.parse_strings srcs) in
  ignore (span "cfront.typecheck" (fun () -> Typecheck.annotate_program tus));
  note "cfront.tokens" "count" (float_of_int tokens);
  (tus, pdiags)

(* the per-function engine over [funcs], layer by layer: callgraph,
   checker staging, Prep, the product scan, per-checker reruns of the
   dirty machines, and the machine-less AST checkers *)
let engine_pass ~spec tus (funcs : Ast.func list) =
  let ctx =
    span "cfg.callgraph" (fun () ->
        let c = Registry.make_ctx tus in
        ignore (Lazy.force c.Registry.callgraph);
        c)
  in
  let staged =
    span "checkers.stage" (fun () ->
        List.filter_map
          (fun (c : Registry.checker) ->
            match c.Registry.phase with
            | Registry.Per_function { check_fn; product; _ } ->
              Some (check_fn ~spec ~ctx, product ~spec)
            | Registry.Whole_program _ -> None)
          Registry.all)
  in
  let with_machine =
    List.filter_map (fun (fn, m) -> Option.map (fun m -> (fn, m)) m) staged
  in
  let machines = Array.of_list (List.map snd with_machine) in
  let fns = Array.of_list (List.map fst with_machine) in
  let preps = span "cfg.prep" (fun () -> List.map Prep.build funcs) in
  List.iter
    (fun (p : Prep.t) ->
      note "cfg.nodes" "count" (float_of_int (Prep.n_nodes p));
      note "cfg.events" "count"
        (float_of_int (Array.length p.Prep.soa.Prep.ev_expr)))
    preps;
  note "engine.overflows" "count" 0.;
  let dirty =
    span "engine.scan" (fun () ->
        List.map
          (fun p ->
            try Engine.product_scan p machines
            with Engine.Product_overflow ->
              note "engine.overflows" "count" 1.;
              Array.make (Array.length machines) true)
          preps)
  in
  span "engine.rerun" (fun () ->
      List.iter2
        (fun p d -> Array.iteri (fun k b -> if b then ignore (fns.(k) p)) d)
        preps dirty);
  span "checkers.ast" (fun () ->
      List.iter
        (fun p ->
          List.iter
            (fun (fn, m) -> if Option.is_none m then ignore (fn p))
            staged)
        preps);
  let n_dirty =
    List.fold_left
      (fun n d -> Array.fold_left (fun n b -> if b then n + 1 else n) n d)
      0 dirty
  in
  note "engine.dirty_frac" "frac"
    (float_of_int n_dirty
    /. float_of_int (max 1 (List.length preps * Array.length machines)))

let lanes ~spec tus =
  span "checkers.lanes" (fun () ->
      List.iter
        (fun (c : Registry.checker) ->
          match c.Registry.phase with
          | Registry.Whole_program g -> ignore (g ~spec tus)
          | Registry.Per_function _ -> ())
        Registry.all)

(* Mcd at [nproc] domains, as the program runs it, and at one, to read
   the parallel speed-up off the same input; with a cache, the second
   run gets a copy taken before the first stored anything *)
let mcd_pass ?cache (job : Mcd.job) =
  let copy = Option.map Mcd_cache.copy cache in
  let res, st = span "mcd.wall" (fun () -> Mcd.check_jobs ?cache ~jobs:nproc [ job ]) in
  let _, st1 =
    span "mcd.wall_1" (fun () -> Mcd.check_jobs ?cache:copy ~jobs:1 [ job ])
  in
  let busy =
    Array.fold_left
      (fun a (w : Mcd_pool.worker_stats) -> a +. w.Mcd_pool.wall_ms)
      0. st.Mcd.workers
  in
  note "mcd.speedup" "x" (st1.Mcd.wall_ms /. st.Mcd.wall_ms);
  note "mcd.busy_frac" "frac"
    (busy /. (float_of_int st.Mcd.domains *. st.Mcd.wall_ms));
  note "mcd.units_run" "count" (float_of_int st.Mcd.units_run);
  note "mcd.units_total" "count" (float_of_int st.Mcd.units_total);
  if Option.is_some cache then begin
    note "mcd_cache.probes" "count" (float_of_int st.Mcd.units_total);
    note "mcd_cache.hit_frac" "frac"
      (float_of_int st.Mcd.cache_hits /. float_of_int (max 1 st.Mcd.units_total))
  end;
  (List.concat_map snd (List.concat res), st)

(* render the result, count it, and check it against the expected digest *)
let finish ~expect diags what =
  let texts =
    span "api.render" (fun () -> List.map (Mcheck_api.render_diag ropts) diags)
  in
  note "checkers.diags" "count" (float_of_int (List.length diags));
  outcome (String.equal (md5 (String.concat "" texts)) expect) what;
  texts

(* ------------------------------------------------------------------ *)
(* corpus-cold                                                         *)
(* ------------------------------------------------------------------ *)

let cold_replay ~files ~expect _ =
  let srcs, _ =
    span "api.read" (fun () -> Mcheck_api.read_sources ~strict:false files)
  in
  let tus, pdiags = front_end srcs in
  let spec = Mcheck_api.default_spec tus in
  engine_pass ~spec tus (List.concat_map Ast.functions tus);
  ignore (span "checkers.product" (fun () -> Registry.run_all_product ~spec tus));
  lanes ~spec tus;
  let diags, _ = mcd_pass { Mcd.spec; tus } in
  ignore (finish ~expect (pdiags @ diags) "cold replay output");
  ignore
    (span "api.check" (fun () ->
         let s =
           Session.create
             ~config:{ Mcheck_api.default_config with Mcheck_api.jobs = nproc }
             ()
         in
         Fun.protect
           ~finally:(fun () -> Session.close s)
           (fun () -> Session.check_files s files)))

let cold ctx =
  let corpus =
    repeat_setup (fun () ->
        let c = gen ctx in
        Corpus.write_to_dir c ".";
        c)
  in
  let files = corpus_files corpus and expect = expect ctx "*" in
  let argv = mcheck_argv ctx ~incremental:false files in
  let run i =
    let r, out, ok = run_mcheck argv ~expect in
    outcome ok (Printf.sprintf "mcheck run %d: exit %d or output differs" i r.Procs.code);
    if i = 0 then check_recall corpus out;
    r
  in
  if not ctx.trace then process_metrics (for_seconds ctx.seconds run)
  else begin
    let procs = List.init 3 run in
    replays ctx ~reps:3 (cold_replay ~files ~expect);
    let walls = Array.of_list (List.map (fun r -> r.Procs.wall_ms) procs) in
    single "api.spawn_ms" "ms" (Stats.median walls -. value "api.check_ms")
  end

(* ------------------------------------------------------------------ *)
(* corpus-incremental                                                  *)
(* ------------------------------------------------------------------ *)

let incremental ctx =
  let fill c =
    if Sys.file_exists "cache.mc" then Sys.remove "cache.mc";
    let _, _, ok =
      run_mcheck (mcheck_argv ctx ~incremental:true (corpus_files c))
        ~expect:(expect ctx "*")
    in
    if not ok then problem "cache-filling mcheck run: exit or output differs"
  in
  let corpus =
    repeat_setup (fun () ->
        let c = gen ctx in
        Corpus.write_to_dir c ".";
        fill c;
        c)
  in
  let texts = corpus_texts corpus in
  let files = List.map fst texts and expect = expect ctx "*" in
  let edits = Edits.sequence ~seed:ctx.seed (Edits.of_corpus corpus) in
  let next = ref 0 and prev = ref None in
  (* revert the previous edit and make the next one *)
  let edit () =
    Option.iter (fun f -> write_file f (List.assoc f texts)) !prev;
    let e = edits.(!next mod Array.length edits) in
    incr next;
    write_file e.Edits.file (Edits.apply (List.assoc e.Edits.file texts) e);
    prev := Some e.Edits.file;
    e
  in
  let argv = mcheck_argv ctx ~incremental:true files in
  let run i =
    let e = edit () in
    let r, _, ok = run_mcheck argv ~expect in
    outcome ok
      (Printf.sprintf "re-check %d after editing %s: exit %d or output differs"
         i e.Edits.func r.Procs.code);
    r
  in
  if not ctx.trace then process_metrics (for_seconds ctx.seconds run)
  else begin
    let procs = List.init 3 run in
    let one _ =
      let e = edit () in
      let srcs, _ =
        span "api.read" (fun () -> Mcheck_api.read_sources ~strict:false files)
      in
      let tus, pdiags = front_end srcs in
      let spec = Mcheck_api.default_spec tus in
      let cache = span "mcd_cache.load" (fun () -> Mcd_cache.load "cache.mc") in
      ignore
        (span "mcd_cache.digest" (fun () ->
             List.concat_map
               (fun tu -> List.map (Mcd.func_digest tu.Ast.tu_file) (Ast.functions tu))
               tus));
      let edited =
        List.concat_map
          (fun tu ->
            if tu.Ast.tu_file = e.Edits.file then
              List.filter
                (fun (f : Ast.func) -> f.Ast.f_name = e.Edits.func)
                (Ast.functions tu)
            else [])
          tus
      in
      engine_pass ~spec tus edited;
      let diags, st = mcd_pass ~cache { Mcd.spec; tus } in
      if st.Mcd.units_run > List.length edited then lanes ~spec tus;
      span "mcd_cache.save" (fun () -> Mcd_cache.save cache "cache.mc");
      note "mcd_cache.bytes" "B" (float_of_int (Unix.stat "cache.mc").Unix.st_size);
      ignore
        (finish ~expect (pdiags @ diags)
           ("incremental replay after editing " ^ e.Edits.func));
      (* the in-process facade, on one more edit so it too re-checks one
         changed function *)
      ignore (edit ());
      ignore
        (span "api.check" (fun () ->
             let s =
               Session.create
                 ~config:
                   {
                     Mcheck_api.default_config with
                     Mcheck_api.jobs = nproc;
                     incremental = true;
                     cache_file = Some "cache.mc";
                   }
                 ()
             in
             Fun.protect
               ~finally:(fun () -> Session.close s)
               (fun () -> Session.check_files s files)))
    in
    replays ctx ~reps:3 one;
    let walls = Array.of_list (List.map (fun r -> r.Procs.wall_ms) procs) in
    single "api.spawn_ms" "ms" (Stats.median walls -. value "api.check_ms")
  end

(* ------------------------------------------------------------------ *)
(* edit-serve                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; sock : string; mutable stopped : bool }

let start_daemon ctx =
  let sock = "mcheckd.sock" in
  let log =
    Unix.openfile "mcheckd.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process ctx.mcheckd
          [|
            ctx.mcheckd; "--socket"; sock; "--workers";
            string_of_int serve_workers; "-q";
          |]
          Unix.stdin log log)
  in
  let d = { pid; sock; stopped = false } in
  let deadline = now () +. 30. in
  let rec up () =
    let ok =
      match Client.connect ~connect_timeout:1. (Proto.Unix_sock sock) with
      | Ok c ->
        let r = Client.ping c in
        Client.close c;
        Result.is_ok r
      | Error _ -> false
    in
    if not ok then
      if now () > deadline then failwith "mcheckd did not come up"
      else begin
        Unix.sleepf 0.02;
        up ()
      end
  in
  up ();
  d

(* drain the daemon, wait for it, and make sure none of its workers
   outlives the run *)
let stop_daemon d =
  if not d.stopped then begin
    d.stopped <- true;
    let workers = Procs.children d.pid in
    (match Client.connect ~connect_timeout:2. (Proto.Unix_sock d.sock) with
    | Ok c ->
      ignore (Client.drain c);
      Client.close c
    | Error _ -> ());
    let deadline = now () +. 10. in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
        end
        else begin
          Unix.sleepf 0.02;
          reap ()
        end
      | _ -> ()
    in
    reap ();
    (* wait for them; past the deadline kill them, and wait again *)
    let rec gone ~killed deadline =
      match List.filter Procs.alive workers with
      | [] -> ()
      | live when now () > deadline ->
        if not killed then begin
          List.iter
            (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
            live;
          gone ~killed:true (now () +. 5.)
        end
      | _ ->
        Unix.sleepf 0.02;
        gone ~killed deadline
    in
    gone ~killed:false (now () +. 5.)
  end

let connect d =
  match Client.connect (Proto.Unix_sock d.sock) with
  | Ok c -> c
  | Error e -> failwith (Client.err_to_string e)

(* frames until the terminating one: the diagnostics' text *)
let read_reply fd =
  let b = Buffer.create 4096 in
  let rec go () =
    match Proto.read_frame fd with
    | Error e -> Error e
    | Ok p -> (
      match Proto.decode_response p with
      | Ok (Proto.R_diag df) ->
        Buffer.add_string b df.Proto.d_text;
        go ()
      | Ok (Proto.R_done _) -> Ok (Buffer.contents b)
      | Ok _ -> Error "unexpected reply"
      | Error e -> Error e)
  in
  go ()

(* Every worker sees every file: the same buffer goes out on every
   connection before any reply is read, so the requests hold all the
   workers at once.  The second round re-sends each file with a trailing
   newline — a whole-request memo miss whose functions all hit — to
   cover a pair that landed on one worker. *)
let warm ctx d texts =
  let fds =
    List.init serve_conns (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX d.sock);
        fd)
  in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close fds)
    (fun () ->
      List.iter
        (fun variant ->
          List.iter
            (fun (name, src) ->
              let req =
                Proto.encode_request
                  (Proto.Check_buffer (Proto.default_opts, name, variant src))
              in
              List.iter (fun fd -> Proto.write_frame fd req) fds;
              List.iter
                (fun fd ->
                  match read_reply fd with
                  | Ok text when String.equal (md5 text) (expect ctx name) -> ()
                  | _ -> problem ("warm-up reply for " ^ name ^ " differs"))
                fds)
            texts)
        [ Fun.id; (fun s -> s ^ "\n") ])

(* one sample's value in Prometheus text (a counter, or a histogram's
   _sum / _count) *)
let prom_value text name =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> float_of_string v
      | _ -> acc)
    0.
    (String.split_on_char '\n' text)

let metrics_text c =
  match Client.metrics c Proto.M_prom with
  | Ok t -> t
  | Error e -> failwith (Client.err_to_string e)

(* the open-loop window: latency from due time, the daemon's own
   histograms across the window, and the generator's lateness *)
let serve_window ctx d texts edits =
  let rng = Random.State.make [| ctx.seed; 0xa771 |] in
  let due = Openloop.schedule ~rng ~rate:serve_rate ~seconds:ctx.seconds in
  let n = Array.length due in
  let reqs =
    Array.init n (fun i ->
        let e = edits.(i mod Array.length edits) in
        (e.Edits.file, Edits.apply (List.assoc e.Edits.file texts) e))
  in
  let conns = Array.init serve_conns (fun _ -> connect d) in
  Fun.protect
    ~finally:(fun () -> Array.iter Client.close conns)
    (fun () ->
      let answers = Array.make n "" in
      let send ~conn i =
        let name, contents = reqs.(i) in
        match Client.check_buffer conns.(conn) Proto.default_opts ~name ~contents with
        | Ok (Client.Checked r) ->
          answers.(i) <-
            md5 (String.concat "" (List.map (fun f -> f.Proto.d_text) r.Client.cr_diags));
          true
        | Ok _ | Error _ -> false
      in
      let before = metrics_text conns.(0) in
      let recs = Openloop.run ~conns:serve_conns ~due ~send in
      let after = metrics_text conns.(0) in
      Array.iteri
        (fun i (r : Openloop.record) ->
          let name, _ = reqs.(i) in
          outcome
            (r.Openloop.ok && String.equal answers.(i) (expect ctx name))
            (Printf.sprintf "edit reply %d for %s failed or differs" i name))
        recs;
      let ms f = Array.map (fun r -> 1000. *. f r) recs in
      let lat = ms Openloop.latency in
      sample "check_ms" "ms" lat;
      pct "check_p95_ms" "ms" 0.95 lat;
      pct "loadgen.late_ms_p95" "ms" 0.95 (ms Openloop.late);
      pct "loadgen.wait_ms_p95" "ms" 0.95 (ms Openloop.wait);
      single "loadgen.requests" "count" (float_of_int n);
      let delta name = prom_value after name -. prom_value before name in
      (* The daemon's histograms have decade buckets, so quantiles read
         off them are guesses; their means over the window are exact,
         and the latency split is made of means. *)
      let hmean name = delta (name ^ "_sum") /. Float.max 1. (delta (name ^ "_count")) in
      single "serve.request_ms_mean" "ms" (hmean "mcheckd_request_ms");
      single "supervise.dispatch_ms_mean" "ms" (hmean "mcsup_dispatch_ms");
      let client = ms (fun r -> r.Openloop.finished -. r.Openloop.sent) in
      single "loadgen.wait_ms_mean" "ms" (mean (ms Openloop.wait));
      single "serve.client_ms_mean" "ms" (mean client);
      single "serve.client_gap_ms" "ms"
        (mean client -. hmean "mcheckd_request_ms");
      single "serve.shed" "count" (delta "mcheckd_shed_total");
      single "supervise.retries" "count" (delta "mcsup_retries_total");
      single "supervise.respawns" "count" (delta "mcsup_respawns_total");
      single "peak_rss_mb" "MiB"
        (List.fold_left
           (fun acc p -> acc +. Procs.hwm_mb p)
           (Procs.hwm_mb d.pid) (Procs.children d.pid)))

(* one reply's frames through the wire codec: encode and frame every
   R_diag plus the R_done trailer, then split and decode them back *)
let codec_roundtrip ~request diags texts =
  span "serve.codec" (fun () ->
      let frames =
        List.map2
          (fun (d : Diag.t) text ->
            Proto.R_diag
              {
                Proto.d_checker = d.Diag.checker;
                d_severity = Diag.severity_string d.Diag.severity;
                d_internal = Robust.is_internal d;
                d_text = text;
              })
          diags texts
        @ [
            Proto.R_done
              {
                rd_exit = 1;
                rd_findings = List.length diags;
                rd_diags = List.length diags;
              };
          ]
      in
      let wire =
        Bytes.of_string
          (String.concat "" (List.map (fun r -> Proto.frame (Proto.encode_response r)) frames))
      in
      let len = Bytes.length wire in
      let rec split off =
        if off < len then
          match Proto.split_frame wire off (len - off) with
          | `Frame (p, used) ->
            if Result.is_error (Proto.decode_response p) then
              problem "codec round trip failed";
            split (off + used)
          | `Need | `Bad _ -> problem "codec round trip failed"
      in
      split 0;
      note "serve.bytes_per_req" "B"
        (float_of_int (len + Proto.header_len + String.length (Proto.encode_request request))))

let serve ctx =
  let current = ref None in
  Fun.protect
    ~finally:(fun () -> Option.iter stop_daemon !current)
    (fun () ->
      let corpus, d =
        repeat_setup
          ~teardown:(fun (_, d) -> stop_daemon d)
          (fun () ->
            let c = gen ctx in
            let d = start_daemon ctx in
            current := Some d;
            warm ctx d (corpus_texts c);
            (c, d))
      in
      let texts = corpus_texts corpus in
      let edits = Edits.sequence ~seed:ctx.seed (Edits.of_corpus corpus) in
      serve_window ctx d texts edits;
      if ctx.trace then begin
        (* in-process: a warm session and Mcd cache, as a worker holds
           them, replaying edits the daemon never saw *)
        let session =
          Session.create
            ~config:{ Mcheck_api.default_config with Mcheck_api.incremental = true }
            ()
        in
        let cache = Mcd_cache.create () in
        List.iter
          (fun (name, src) ->
            ignore (Session.check_buffer session ~name ~contents:src);
            let tus, _ = Frontend.parse_strings [ (name, Prelude.text ^ src) ] in
            ignore
              (Mcd.check_jobs ~cache ~jobs:1
                 [ { Mcd.spec = Mcheck_api.default_spec tus; tus } ]))
          texts;
        let fresh = Array.length edits - 1 in
        let one i =
          let e = edits.(fresh - i) in
          let name = e.Edits.file in
          let contents = Edits.apply (List.assoc name texts) e in
          let tus, pdiags = front_end [ (name, Prelude.text ^ contents) ] in
          let spec = Mcheck_api.default_spec tus in
          ignore
            (span "mcd_cache.digest" (fun () ->
                 List.concat_map
                   (fun tu -> List.map (Mcd.func_digest name) (Ast.functions tu))
                   tus));
          let edited =
            List.filter
              (fun (f : Ast.func) -> f.Ast.f_name = e.Edits.func)
              (List.concat_map Ast.functions tus)
          in
          engine_pass ~spec tus edited;
          let diags, st = mcd_pass ~cache { Mcd.spec; tus } in
          if st.Mcd.units_run > List.length edited then lanes ~spec tus;
          let all = pdiags @ diags in
          let texts = finish ~expect:(expect ctx name) all ("replayed edit of " ^ name) in
          codec_roundtrip
            ~request:(Proto.Check_buffer (Proto.default_opts, name, contents))
            all texts;
          ignore
            (span "api.check" (fun () -> Session.check_buffer session ~name ~contents))
        in
        replays ctx ~reps:30 one;
        let check_mean =
          match Hashtbl.find_opt rep_samples "api.check_ms" with
          | Some (_, vs) -> mean (Array.of_list vs)
          | None -> Float.nan
        in
        single "api.check_ms_mean" "ms" check_mean;
        single "supervise.hop_ms" "ms"
          (value "supervise.dispatch_ms_mean" -. check_mean)
      end)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: pb run --workload W --seed N --seconds S --trace 0|1 --bin DIR \
   --expected FILE --out DIR [--rev REV]\n\
  \       pb golden FILE"

let () =
  match Array.to_list Sys.argv with
  | [ _; "golden"; out ] -> golden out
  | _ :: "run" :: args ->
    let rec pairs = function
      | k :: v :: rest -> (k, v) :: pairs rest
      | [] -> []
      | [ k ] -> failwith ("missing value for " ^ k)
    in
    let opts = pairs args in
    let arg k =
      match List.assoc_opt k opts with
      | Some v -> v
      | None ->
        prerr_endline usage;
        exit 2
    in
    let bin = arg "--bin" in
    let ctx =
      {
        workload = arg "--workload";
        seed = int_of_string (arg "--seed");
        seconds = float_of_string (arg "--seconds");
        trace = arg "--trace" = "1";
        mcheck = Filename.concat bin "mcheck.exe";
        mcheckd = Filename.concat bin "mcheckd.exe";
        expected = load_expected (arg "--expected");
        out_dir = arg "--out";
        rev = Option.value ~default:"unknown" (List.assoc_opt "--rev" opts);
      }
    in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* an OBS_TRACE environment must not leak into the untraced numbers *)
    Mcobs.set_enabled false;
    Mcobs.set_verbosity Mcobs.Quiet;
    (match ctx.workload with
    | "corpus-cold" -> cold ctx
    | "corpus-incremental" -> incremental ctx
    | "edit-serve" -> serve ctx
    | w -> failwith ("unknown workload " ^ w));
    if ctx.trace then
      List.iter
        (fun (name, u) ->
          if not (List.exists (fun m -> m.name = name) !collected) then
            single name u 0.)
        bypassable;
    print_report ctx;
    print_result ctx
  | _ ->
    prerr_endline usage;
    exit 2
