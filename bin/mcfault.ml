(* mcfault — fault-injection campaign driver for the hardened pipeline.

   Plants seeded faults (parser, cache, checker, budget classes) one at
   a time and asserts the containment invariants after each: no uncaught
   exception, no hang, deterministic diagnostics on the unaffected
   remainder, coverage loss reported.  Exit 0 iff every injection held.

   --chaos lifts the campaign to the service tier: a live supervised
   mcheckd under worker kills, memory/stack/CPU bombs, slowloris and
   garbage framing, cache-directory corruption, and overload bursts.
   Exit 0 iff every requested injection ran, with zero failed
   injections, zero daemon deaths, and zero lost in-flight requests on
   the drain finale. *)

let run_chaos seed count quick out =
  (* the campaign's mirror and cache-writer sessions would otherwise
     interleave mcd progress lines with the summary *)
  Mcobs.set_verbosity Mcobs.Quiet;
  let s = Chaos.campaign ~seed ~count ~quick () in
  Chaos.pp_summary Format.std_formatter s;
  (match out with
  | None -> ()
  | Some path ->
    Mcheck_api.write_file path (Chaos.summary_to_json s);
    Printf.printf "wrote %s\n" path);
  if Chaos.gates_ok s then 0 else 1

let run chaos seed count quick classes out =
  if chaos then
    run_chaos seed
      (if count = 500 then 340 else count)
      quick out
  else
  let count = if quick then min count 60 else count in
  let classes =
    match classes with
    | [] -> Faultinject.all_classes
    | names ->
      List.map
        (fun n ->
          match Faultinject.klass_of_name n with
          | Some k -> k
          | None ->
            Printf.eprintf
              "mcfault: unknown class %S (expected parser, cache, checker \
               or budget)\n"
              n;
            exit 2)
        names
  in
  let s = Faultinject.campaign ~seed ~count ~classes () in
  Faultinject.pp_summary Format.std_formatter s;
  (match out with
  | None -> ()
  | Some path ->
    Mcheck_api.write_file path (Faultinject.summary_to_json s);
    Printf.printf "wrote %s\n" path);
  if s.Faultinject.failed = 0 then 0 else 1

open Cmdliner

let chaos_arg =
  let doc =
    "Run the service-tier chaos campaign against a live supervised \
     mcheckd (worker kills, OOM/stack/CPU bombs, slowloris, garbage \
     frames, cache-directory corruption, overload bursts) instead of \
     the in-process fault classes."
  in
  Arg.(value & flag & info [ "chaos" ] ~doc)

let seed_arg =
  let doc = "Campaign seed (the run is deterministic in it)." in
  Arg.(value & opt int 0xFA17 & info [ "seed" ] ~docv:"N" ~doc)

let count_arg =
  let doc = "Number of injections (with --chaos the default is 340)." in
  Arg.(value & opt int 500 & info [ "count"; "n" ] ~docv:"N" ~doc)

let quick_arg =
  let doc = "Cap the campaign at 60 injections (CI smoke)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let classes_arg =
  let doc =
    "Restrict to these fault classes (parser, cache, checker, budget); \
     repeatable."
  in
  Arg.(value & opt_all string [] & info [ "classes"; "class" ] ~docv:"CLASS" ~doc)

let out_arg =
  let doc = "Write a JSON summary to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "fault-injection campaigns against the mcheck pipeline" in
  let info = Cmd.info "mcfault" ~doc in
  Cmd.v info
    Term.(
      const run $ chaos_arg $ seed_arg $ count_arg $ quick_arg $ classes_arg
      $ out_arg)

let () =
  Serve.Worker.exit_if_worker ();
  exit (Cmd.eval' cmd)
