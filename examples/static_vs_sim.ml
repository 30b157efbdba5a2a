(** The paper's motivating comparison, made measurable.

    Section 2: the FLASH protocols were tested for years in the detailed
    FlashLite simulator, yet "no protocol has booted perfectly on the
    hardware on the first try" — the remaining bugs hide on rare corner
    paths that simulation almost never exercises.

    Here we take one executable bitvector protocol with four seeded bugs
    (double free, fill race, length/data mismatch, buffer leak — all on
    corner paths), and compare:

    - dynamic testing: how many simulated transactions until each bug
      first *manifests* as a runtime fault, and
    - static checking: the metal checkers, which flag all four sites
      immediately, with line numbers.

    A final sweep lowers the corner-path probability and reports how
    long simulation takes to hit each bug, if it hits it at all.

    Run with: [dune exec examples/static_vs_sim.exe] *)

let transactions = 4000

let run_static () =
  print_endline "--- static checking (metal) ---";
  let tus = Golden.program Golden.Buggy in
  let spec = Golden.spec in
  let total = ref 0 in
  List.iter
    (fun (c : Registry.checker) ->
      let diags = Registry.run c ~spec tus in
      List.iter
        (fun d ->
          incr total;
          Format.printf "  %a@." Diag.pp d)
        diags)
    Registry.all;
  Printf.printf "  => %d report(s), produced in one compile pass\n\n" !total

let run_dynamic ~variant ~label =
  Printf.printf "--- dynamic testing (%s protocol, %d transactions) ---\n"
    label transactions;
  let result =
    Sim.run { Sim.default_config with Sim.transactions; Sim.variant }
  in
  Format.printf "%a@.@." Sim.pp_result result;
  result

(* The rarer the corner condition, the longer dynamic testing needs to
   stumble on the bug (and below some rate it never does in the budget),
   while the static checkers are oblivious to rarity. *)
let run_sensitivity () =
  let budget = 8000 in
  let seeds = [ 11; 23; 37; 51; 73 ] in
  Printf.printf
    "--- rarity vs time-to-detection (buggy protocol) ---\n\
     corner-path probability swept; %d-transaction budget; cells are the\n\
     mean transaction of first manifestation over %d workload seeds\n\
     (n/m = only n of m seeds ever hit it)\n\n"
    budget (List.length seeds);
  Printf.printf "  %-8s %-12s %-12s %-14s\n" "corner%" "double free"
    "fill race" "len mismatch";
  List.iter
    (fun pct ->
      let runs =
        List.map
          (fun seed ->
            Sim.run
              {
                Sim.default_config with
                Sim.transactions = budget;
                variant = Golden.Buggy;
                seed;
                corner_flag_pct = pct;
                fill_delay_pct = pct;
                queue_pressure_pct = pct;
              })
          seeds
      in
      let cell cls =
        let hits =
          List.filter_map
            (fun (r : Sim.result) -> List.assoc_opt cls r.Sim.first_detection)
            runs
        in
        match hits with
        | [] -> "-"
        | _ when List.length hits < List.length seeds ->
          Printf.sprintf "%d/%d" (List.length hits) (List.length seeds)
        | _ -> string_of_int (List.fold_left ( + ) 0 hits / List.length hits)
      in
      Printf.printf "  %-8d %-12s %-12s %-14s\n" pct (cell "double free")
        (cell "fill race") (cell "length mismatch"))
    [ 20; 10; 5; 2; 1 ];
  print_endline
    "\n  (the static checkers flag all three sites in one pass regardless)\n"

let () =
  run_static ();
  let clean = run_dynamic ~variant:Golden.Clean ~label:"clean" in
  let buggy = run_dynamic ~variant:Golden.Buggy ~label:"buggy" in
  Printf.printf
    "summary: the clean protocol shows %d faults and %d corruptions;\n\
     the buggy one needs hundreds of transactions (and the right random\n\
     corner conditions) before each fault class first shows up, while\n\
     the checkers point at all the seeded lines immediately.\n"
    (List.length clean.Sim.faults)
    clean.Sim.stats.Sim.corruptions;
  ignore buggy;
  print_newline ();
  run_sensitivity ()
