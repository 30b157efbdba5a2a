(** mcfuzz — randomized differential testing of the checking pipeline.

    Generates seeded random FLASH-style Clite programs, runs them through
    pipelines that must agree with the reference [Registry.run_all] (Mcd
    with 1, 2 and 4 domains, cold/warm/shared caches, the sequential
    product driver [Registry.run_all_product], and a printer round
    trip), and — with
    [--mutate] — seeds paper-style bugs with ground-truth labels and
    scores each checker's recall and precision.

    With [--serve], every clean program additionally runs through a
    live [mcheckd] daemon (its supervised worker processes hold warm
    parallel/incremental sessions) and over the wire back — the sixth
    oracle: daemon output, findings, and exit code must be
    byte-identical to the local CLI path.

    With [--metalc], the three in-tree metal specs run compiled, as
    checkers through the Mcd kernel at one and two domains, and
    interpreted, over the fixed corpus + golden programs and over every
    generated program — the seventh oracle: the diagnostics must be
    byte-identical.

    Exit status 1 when any pipeline disagrees, any seeded-bug recall
    drops below the threshold, or a generated program crashes the
    pipeline; 0 otherwise.  Failures print the seed, so
    [mcfuzz --seed N --count 1] reproduces any report. *)

open Cmdliner

let main seed count mutate out quiet threshold serve metalc =
  let t0 = Unix.gettimeofday () in
  let log i =
    if (not quiet) && (i mod 100 = 0 || i = count) then
      Printf.eprintf "mcfuzz: %d/%d programs (%.1fs)\n%!" i count
        (Unix.gettimeofday () -. t0)
  in
  let daemon = if serve then Some (Serve.Serve_oracle.start ()) else None in
  let mc =
    if not metalc then None
    else
      match Fuzz_metalc.create () with
      | Ok t -> Some t
      | Error e ->
        Printf.eprintf "mcfuzz: %s\n" e;
        exit 2
  in
  (* the fixed-input half of O7 runs once, before the seeded loop *)
  let sweep_failures =
    match mc with
    | Some t ->
      let fs = Fuzz_metalc.sweep t in
      if not quiet then
        Printf.eprintf "mcfuzz: metalc corpus+golden sweep: %d disagreement(s)\n%!"
          (List.length fs);
      fs
    | None -> []
  in
  let extra_oracle p =
    let serve_fs =
      match daemon with Some d -> Serve.Serve_oracle.check d p | None -> []
    in
    let metal_fs =
      match mc with Some t -> Fuzz_metalc.oracle t p | None -> []
    in
    serve_fs @ metal_fs
  in
  let { Fuzz_driver.score; failures } =
    Fun.protect
      ~finally:(fun () -> Option.iter Serve.Serve_oracle.stop daemon)
      (fun () ->
        Fuzz_driver.run ~log ~extra_oracle ~base_seed:seed ~count ~mutate ())
  in
  let failures = sweep_failures @ failures in
  List.iter
    (fun f -> Format.eprintf "FAIL %a@." Fuzz_oracle.pp_failure f)
    failures;
  print_string (Fuzz_score.table score);
  (match out with
  | Some path ->
    Fuzz_score.write_json score path;
    Printf.printf "wrote %s\n" path
  | None -> ());
  let recall = Fuzz_score.overall_recall score in
  if failures <> [] then begin
    Printf.eprintf "mcfuzz: %d oracle disagreement(s)\n" (List.length failures);
    exit 1
  end;
  if mutate && recall < threshold then begin
    Printf.eprintf "mcfuzz: recall %.1f%% below threshold %.1f%%\n"
      (100. *. recall) (100. *. threshold);
    exit 1
  end

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed; program $(i,i) uses SEED+i.")

let count_arg =
  Arg.(
    value & opt int 100
    & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate.")

let mutate_arg =
  Arg.(
    value & flag
    & info [ "mutate" ]
        ~doc:"Also seed every applicable bug mutation per program and \
              score per-checker recall/precision.")

let out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write a JSON report.")

let quiet_arg = Arg.(value & flag & info [ "quiet" ] ~doc:"No progress output.")

let threshold_arg =
  Arg.(
    value & opt float 0.9
    & info [ "recall-threshold" ] ~docv:"R"
        ~doc:"Fail when overall recall drops below R (with --mutate).")

let serve_arg =
  Arg.(
    value & flag
    & info [ "serve" ]
        ~doc:"Also run every clean program through a live mcheckd \
              daemon (checks run in its worker processes) and require its wire output, findings, and \
              exit code to match the local CLI path byte-for-byte.")

let metalc_arg =
  Arg.(
    value & flag
    & info [ "metalc" ]
        ~doc:"Also run the three in-tree metal specs compiled (through \
              the scheduler at one and two domains) and interpreted — \
              over the fixed corpus and golden programs once, then over \
              every generated program — and require the diagnostics to \
              match byte-for-byte.")

let cmd =
  Cmd.v
    (Cmd.info "mcfuzz"
       ~doc:"differential fuzzing of the FLASH checking pipeline")
    Term.(
      const main $ seed_arg $ count_arg $ mutate_arg $ out_arg $ quiet_arg
      $ threshold_arg $ serve_arg $ metalc_arg)

let () =
  Serve.Worker.exit_if_worker ();
  exit (Cmd.eval cmd)
