(* Tests for the benchmark's own logic: order statistics, the seeded
   edits, open-loop accounting, and self-time attribution. *)

open Perfbench

let feq = Alcotest.(check (float 1e-9))

let test_quantiles () =
  let xs = [| 4.; 1.; 3.; 2. |] in
  feq "median" 2.5 (Stats.median xs);
  feq "q1" 1.75 (Stats.quantile xs 0.25);
  feq "q3" 3.25 (Stats.quantile xs 0.75);
  feq "p0 is the minimum" 1. (Stats.quantile xs 0.);
  feq "p1 is the maximum" 4. (Stats.quantile xs 1.);
  feq "p95 of 1..100" 95.05
    (Stats.quantile (Array.init 100 (fun i -> float_of_int (i + 1))) 0.95);
  feq "one sample" 7. (Stats.median [| 7. |]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.median [||]));
  Alcotest.(check (array (float 0.))) "input untouched" [| 4.; 1.; 3.; 2. |] xs;
  let s = Stats.summarize xs in
  Alcotest.(check int) "n" 4 s.Stats.n;
  feq "summary q3" 3.25 s.Stats.q3

let lines s = String.split_on_char '\n' s

(* every edit re-parses cleanly, moves no line, changes exactly one line
   and exactly one function digest — the edited function's — and leaves
   the file's diagnostics byte-identical *)
let test_edits () =
  let c = Corpus.generate ~seed:5 () in
  let texts =
    List.concat_map (fun (p : Corpus.protocol) -> p.Corpus.files) c.Corpus.protocols
  in
  let cands = Edits.of_corpus c in
  let edits = Edits.sequence ~seed:11 cands in
  Alcotest.(check bool) "hundreds of candidates" true (Array.length edits > 300);
  Alcotest.(check bool) "a permutation" true
    (List.sort compare cands = List.sort compare (Array.to_list edits));
  Alcotest.(check bool) "seeded" true (Edits.sequence ~seed:11 cands = edits);
  let digests file src =
    let tu, diags = Frontend.parse ~file src in
    (diags, List.map (fun f -> (f.Ast.f_name, Mcd.func_digest file f)) (Ast.functions tu))
  in
  let render (r : Mcheck_api.report) =
    String.concat ""
      (List.map
         (Mcheck_api.render_diag
            { Mcheck_api.ro_explain = false; ro_verbose = false; ro_quiet = true })
         (Mcheck_api.report_diags r))
  in
  let session = Mcheck_api.Session.create () in
  Array.iteri
    (fun i (e : Edits.t) ->
      if i < 40 then begin
        let src = List.assoc e.Edits.file texts in
        let edited = Edits.apply src e in
        Alcotest.(check int) "no line moves" (List.length (lines src))
          (List.length (lines edited));
        Alcotest.(check int) "one line changes" 1
          (List.length
             (List.filter
                (fun (a, b) -> a <> b)
                (List.combine (lines src) (lines edited))));
        let _, before = digests e.Edits.file src in
        let pdiags, after = digests e.Edits.file edited in
        Alcotest.(check int) "re-parses cleanly" 0 (List.length pdiags);
        Alcotest.(check (list string)) "exactly the edited digest" [ e.Edits.func ]
          (List.filter_map
             (fun ((n, a), (_, b)) -> if a <> b then Some n else None)
             (List.combine before after));
        if i < 12 then
          let check contents =
            render
              (Mcheck_api.Session.check_buffer session ~name:e.Edits.file ~contents)
          in
          Alcotest.(check string) "diagnostics unchanged" (check src) (check edited)
      end)
    edits

(* one connection, and request 0 stalls it: the requests queued behind
   are timed from their due time, the wait is charged to them, and the
   generator itself is not late *)
let test_openloop_stall () =
  let due = [| 0.; 0.01; 0.02 |] in
  let recs =
    Openloop.run ~conns:1 ~due ~send:(fun ~conn:_ i ->
        if i = 0 then Unix.sleepf 0.2;
        true)
  in
  let lat i = Openloop.latency recs.(i) in
  Alcotest.(check bool) "stalled request" true (lat 0 >= 0.2);
  Alcotest.(check bool) "queued behind it, from due time" true (lat 1 >= 0.185);
  Alcotest.(check bool) "second queued" true (lat 2 >= 0.175);
  Alcotest.(check bool) "wait charged" true (Openloop.wait recs.(1) >= 0.185);
  Alcotest.(check bool) "generator not late" true (Openloop.late recs.(1) < 0.05);
  (* with a second connection the stall no longer holds the others up *)
  let recs =
    Openloop.run ~conns:2 ~due ~send:(fun ~conn:_ i ->
        if i = 0 then Unix.sleepf 0.2;
        true)
  in
  Alcotest.(check bool) "free connection" true (Openloop.latency recs.(1) < 0.1)

let test_schedule () =
  let rng = Random.State.make [| 3 |] in
  let due = Openloop.schedule ~rng ~rate:100. ~seconds:100. in
  Alcotest.(check int) "rate x seconds arrivals" 10000 (Array.length due);
  let gaps = Array.init 9999 (fun i -> due.(i + 1) -. due.(i)) in
  let mean_gap = Array.fold_left ( +. ) 0. gaps /. 9999. in
  Alcotest.(check bool) "exponential gaps: sd close to the mean" true
    (let var =
       Array.fold_left (fun a g -> a +. ((g -. mean_gap) ** 2.)) 0. gaps /. 9999.
     in
     Float.abs ((sqrt var /. mean_gap) -. 1.) < 0.05);
  Alcotest.(check bool) "ascending, inside the window" true
    (Array.for_all (fun t -> t >= 0. && t < 100.) due
    && Array.to_list due = List.sort compare (Array.to_list due))

let span ?(tid = 0) name b e =
  {
    Mcobs.sp_name = name;
    sp_tid = tid;
    sp_trace = "";
    sp_begin_us = b;
    sp_dur_us = e -. b;
    sp_depth = 0;
    sp_args = [];
  }

let test_attribution () =
  let spans =
    [
      span "replay" 0. 100.;
      span "cfront.parse" 10. 40.;
      span "cfront.lex" 12. 20.;
      span "mcd.wall" 50. 90.;
      span "mcd.pool" 55. 85.;
      span "engine.check_fn" 60. 70.;
      span ~tid:1 "mcd.worker" 55. 85.;
      span "api.outside" 200. 300.;
      span "replay" 400. 410.;
      span "api.render" 401. 409.;
    ]
  in
  let a = Attrib.attribute ~tid:0 ~root:"replay" spans in
  feq "wall" 110. a.Attrib.wall_us;
  feq "unattributed" 32. a.Attrib.unattributed_us;
  Alcotest.(check (list (pair string (float 1e-9))))
    "self time by layer"
    [ ("api", 8.); ("cfront", 30.); ("engine", 10.); ("mcd", 30.) ]
    a.Attrib.layers;
  feq "layers plus remainder make the wall" a.Attrib.wall_us
    (a.Attrib.unattributed_us
    +. List.fold_left (fun acc (_, v) -> acc +. v) 0. a.Attrib.layers)

let () =
  Alcotest.run "perfbench"
    [
      ("stats", [ Alcotest.test_case "quantiles" `Quick test_quantiles ]);
      ("edits", [ Alcotest.test_case "inert and line-preserving" `Quick test_edits ]);
      ( "openloop",
        [
          Alcotest.test_case "stall counted from due time" `Quick test_openloop_stall;
          Alcotest.test_case "poisson schedule" `Quick test_schedule;
        ] );
      ("attrib", [ Alcotest.test_case "self time reconciles" `Quick test_attribution ]);
    ]
