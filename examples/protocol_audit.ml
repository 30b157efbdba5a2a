(** Full audit: generate the five FLASH protocols plus common code, run
    all eight checkers, and print every table from the paper's evaluation
    with paper-published and measured numbers side by side.

    Run with: [dune exec examples/protocol_audit.exe] *)

let () =
  print_endline "Generating the synthetic FLASH protocol corpus...";
  let corpus = Corpus.generate () in
  List.iter
    (fun (p : Corpus.protocol) ->
      Printf.printf "  %-10s %6d LOC, %3d routines, %2d seeded fault sites\n"
        p.Corpus.name p.Corpus.loc
        (List.fold_left
           (fun acc tu -> acc + List.length (Ast.functions tu))
           0 p.Corpus.tus)
        (List.length p.Corpus.manifest))
    corpus.Corpus.protocols;
  print_newline ();
  List.iter
    (fun t ->
      Table.print t;
      print_newline ())
    (Experiments.all corpus);
  (* the paper's bottom line *)
  let bugs, fps =
    List.fold_left
      (fun (b, f) (p : Corpus.protocol) ->
        List.fold_left
          (fun (b, f) (c : Registry.checker) ->
            let diags = Registry.run c ~spec:p.Corpus.spec p.Corpus.tus in
            List.fold_left
              (fun (b, f) (d : Diag.t) ->
                match
                  Manifest.classify p.Corpus.manifest
                    ~checker:c.Registry.name ~protocol:p.Corpus.name
                    ~func:d.Diag.func
                with
                | Some { Manifest.kind = Manifest.Bug; _ }
                  when c.Registry.name <> "exec_restrict" ->
                  (b + 1, f)
                | Some { Manifest.kind = Manifest.False_positive; _ } ->
                  (b, f + 1)
                | _ -> (b, f))
              (b, f) diags)
          (b, f) Registry.all)
      (0, 0) corpus.Corpus.protocols
  in
  Printf.printf
    "bottom line: %d errors (paper: 34) and %d false positives (paper: 69)\n"
    bugs fps
