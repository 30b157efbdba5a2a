(** The metal compiler, held to the interpreter: surface parse -> typed
    IR (name resolution, targets), and the lowered machine run as a
    checker through the {!Mcd} kernel — the [mcheck --metal] path —
    matching {!Mdsl} interpretation step for step on hand-written
    programs, on random well-formed machines over random drivers, and
    on the fuzzer's generated programs under the three in-tree specs
    (the O7 smoke). *)

let t = Alcotest.test_case

let spec_src =
  {|
sm abc {
  decl { scalar } a;
  start:
    { FOO(a); } ==> second ;
  second:
    { BAR(a); } ==> stop
  | { BAZ(a); } ==> { err("boom"); } ;
}
|}

let ir_of src =
  match Mir.of_surface (Mparse.parse src) with
  | Ok ir -> ir
  | Error es ->
    Alcotest.failf "compiler rejected: %s"
      (String.concat "; " (List.map Mir.render_error es))

let compile_exn src =
  match Mrun.compile src with
  | Ok c -> c
  | Error es ->
    Alcotest.failf "compile failed: %s"
      (String.concat "; " (List.map Mir.render_error es))

(* interpreted (the reference) and compiled (the production path: the
   spec's checker through the Mcd kernel) diagnostics, rendered *)
let run_both metal_src c_src =
  let tus =
    Parsed.ok (Frontend.parse_strings [ ("t.c", Prelude.text ^ c_src) ])
  in
  let compiled =
    match
      Mcd.check_jobs ~checkers:[ compile_exn metal_src ] ~jobs:1
        [ { Mcd.spec = Mcheck_api.default_spec tus; tus } ]
    with
    | [ [ (_, ds) ] ], _ -> ds
    | _ -> Alcotest.fail "expected one result entry"
  in
  ( List.map Diag.to_string (Engine.check (Mdsl.load metal_src) (`Program tus)),
    List.map Diag.to_string compiled )

(* ------------------------------------------------------------------ *)
(* Surface -> IR                                                       *)
(* ------------------------------------------------------------------ *)

let ir_cases =
  [
    t "states and targets resolve" `Quick (fun () ->
        let ir = ir_of spec_src in
        Alcotest.(check (array string))
          "states" [| "start"; "second" |] ir.Mir.ir_states;
        Alcotest.(check int) "start id" 0 ir.Mir.ir_start;
        (match ir.Mir.ir_rules.(0) with
        | [ r ] ->
          Alcotest.(check bool) "start rule is Goto 1" true
            (r.Mir.r_target = Mir.Goto 1);
          Alcotest.(check bool) "no err" true (r.Mir.r_err = None)
        | rs -> Alcotest.failf "start has %d rules" (List.length rs));
        match ir.Mir.ir_rules.(1) with
        | [ r1; r2 ] ->
          Alcotest.(check bool) "BAR rule stops" true
            (r1.Mir.r_target = Mir.Stop);
          Alcotest.(check bool) "BAZ rule stays" true
            (r2.Mir.r_target = Mir.Stay);
          Alcotest.(check (option string))
            "BAZ err" (Some "boom") r2.Mir.r_err
        | rs -> Alcotest.failf "second has %d rules" (List.length rs));
    t "all-only machine gets a synthetic start" `Quick (fun () ->
        let ir =
          ir_of "sm allonly { decl { scalar } a; all: { FOO(a); } ==> stop ; }"
        in
        Alcotest.(check (array string)) "states" [| "start" |]
          ir.Mir.ir_states;
        Alcotest.(check int) "all rules" 1 (List.length ir.Mir.ir_all));
    t "named patterns resolve through alternation" `Quick (fun () ->
        let ir =
          ir_of
            "sm np { decl { scalar } a;\n\
            \  pat p = { FOO(a) } | { BAR(a) } ;\n\
            \  start: p ==> stop ; }"
        in
        match ir.Mir.ir_rules.(0) with
        | [ r ] ->
          Alcotest.(check int) "two branches" 2
            (List.length r.Mir.r_branches)
        | rs -> Alcotest.failf "start has %d rules" (List.length rs));
  ]

(* ------------------------------------------------------------------ *)
(* Compiled = interpreted                                              *)
(* ------------------------------------------------------------------ *)

(* a random well-formed machine: 2..4 states chained so every state is
   reachable, distinct call patterns within each scope (the overlap
   check), random stop/goto/err effects *)
let pool = [| "FOO"; "BAR"; "BAZ"; "QUX"; "WAITX"; "READX"; "SENDX" |]

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let random_machine rng =
  let n = 2 + Random.State.int rng 3 in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "sm rnd {\n  decl { scalar } a;\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "  s%d:\n" i);
    let names = shuffle rng pool in
    let k = 1 + Random.State.int rng 3 in
    for j = 0 to k - 1 do
      let sep = if j = 0 then "    " else "  | " in
      let target =
        if i < n - 1 && j = 0 then Printf.sprintf "s%d" (i + 1)
        else
          match Random.State.int rng 4 with
          | 0 -> "stop"
          | 1 -> Printf.sprintf "s%d" (Random.State.int rng n)
          | 2 -> Printf.sprintf "{ err(\"e%d\"); }" (Random.State.int rng 3)
          | _ -> Printf.sprintf "s%d" i
      in
      Buffer.add_string buf
        (Printf.sprintf "%s{ %s(a); } ==> %s\n" sep names.(j) target)
    done;
    Buffer.add_string buf "  ;\n"
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let random_driver rng =
  let seq () =
    let len = 2 + Random.State.int rng 5 in
    String.concat " "
      (List.init len (fun _ ->
           Printf.sprintf "%s(x);"
             pool.(Random.State.int rng (Array.length pool))))
  in
  Printf.sprintf "void H(void) { long x; if (x) { %s } %s }" (seq ()) (seq ())

let prop_random_machines =
  QCheck.Test.make ~name:"random machines: compiled = interpreted" ~count:60
    QCheck.small_nat (fun seed ->
      let rng = Random.State.make [| seed; 0xC0FFEE |] in
      let metal = random_machine rng in
      let c_src = random_driver rng in
      let di, dc = run_both metal c_src in
      if di <> dc then
        QCheck.Test.fail_reportf "diverged on:\n%s\n%s\ninterp: %s\ncompiled: %s"
          metal c_src (String.concat " | " di)
          (String.concat " | " dc);
      true)

let prop_fuzz_programs =
  QCheck.Test.make
    ~name:"fuzz programs: O7 oracle quiet under the in-tree specs" ~count:10
    QCheck.small_nat (fun seed ->
      let mc =
        match Fuzz_metalc.create () with
        | Ok t -> t
        | Error e -> QCheck.Test.fail_reportf "%s" e
      in
      let p = Fuzz_gen.generate ~seed () in
      match Fuzz_metalc.oracle mc p with
      | [] -> true
      | fs ->
        QCheck.Test.fail_reportf "%s"
          (String.concat "\n"
             (List.map (Format.asprintf "%a" Fuzz_oracle.pp_failure) fs)))

let diff_cases =
  [
    t "figure-2 race: identical diagnostics" `Quick (fun () ->
        let di, dc =
          run_both
            "sm w { decl { scalar } addr, buf;\n\
            \  start: { WAIT_FOR_DB_FULL(addr); } ==> stop\n\
            \  | { MISCBUS_READ_DB(addr, buf); } ==> { err(\"unsync\"); } ;\n\
             }"
            "void H(void) { long a; if (a) { WAIT_FOR_DB_FULL(a); } a = \
             MISCBUS_READ_DB(a, 0); }"
        in
        Alcotest.(check (list string)) "diags" di dc;
        Alcotest.(check int) "found the race" 1 (List.length dc));
    QCheck_alcotest.to_alcotest prop_random_machines;
    QCheck_alcotest.to_alcotest prop_fuzz_programs;
    t "the oracle finds the specs from outside the checkout" `Quick
      (fun () ->
        let cwd = Sys.getcwd () in
        let dir = Filename.temp_dir "metalc-cwd" "" in
        Fun.protect
          ~finally:(fun () ->
            Sys.chdir cwd;
            try Sys.rmdir dir with _ -> ())
          (fun () ->
            Sys.chdir dir;
            match Fuzz_metalc.create () with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e));
    (* A speed tripwire, not a measurement: no benchmark workload loads
       a metal spec, so this is the only place a production metal path
       slower than the interpreter would show.  Best of 5 per side, the
       sides interleaved in alternating order so host drift and heap
       growth hit both; the 1.25x margin absorbs the remaining noise. *)
    t "compiled specs within 1.25x of interpreted on the corpus" `Slow
      (fun () ->
        let mc =
          match Fuzz_metalc.create () with
          | Ok t -> t
          | Error e -> Alcotest.fail e
        in
        let jobs = Mcheck_api.corpus_jobs (Corpus.generate ()) in
        let checkers = List.map (fun (_, c, _) -> c) mc.Fuzz_metalc.specs
        and interp = List.map (fun (_, _, i) -> i) mc.Fuzz_metalc.specs in
        let compiled () = ignore (Mcd.check_jobs ~checkers ~jobs:1 jobs)
        and interpreted () =
          (* one Prep per function shared by every machine, as the
             compiled side shares it, so only the dispatch differs *)
          let ms = List.map (fun sm -> Engine.machine sm) interp in
          List.iter
            (fun (j : Mcd.job) ->
              List.iter
                (fun tu ->
                  List.iter
                    (fun f ->
                      let prep = Prep.build f in
                      List.iter
                        (fun m -> ignore (Engine.check_prep m prep))
                        ms)
                    (Ast.functions tu))
                j.Mcd.tus)
            jobs
        in
        let time run best =
          let t0 = Unix.gettimeofday () in
          run ();
          best := Float.min !best (Unix.gettimeofday () -. t0)
        in
        let best_c = ref infinity and best_i = ref infinity in
        for i = 0 to 4 do
          if i mod 2 = 0 then (
            time interpreted best_i;
            time compiled best_c)
          else (
            time compiled best_c;
            time interpreted best_i)
        done;
        if !best_c > 1.25 *. !best_i then
          Alcotest.failf "compiled %.1f ms > 1.25 x interpreted %.1f ms"
            (!best_c *. 1000.) (!best_i *. 1000.));
  ]

let suite =
  ("metalc", ir_cases @ diff_cases)
