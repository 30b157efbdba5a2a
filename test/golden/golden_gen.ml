(** Golden-file generator: every checker's diagnostics, sorted, over the
    synthetic corpus, both golden-protocol variants, and the paper's
    metal DSL checkers.  [dune runtest] diffs the output against
    [all.expected]; intentional checker changes are reviewed as diffs
    and accepted with [dune promote]. *)

let section name (diags : Diag.t list) =
  let lines = List.sort String.compare (List.map Diag.to_string diags) in
  Printf.printf "== %s (%d)\n" name (List.length lines);
  List.iter print_endline lines

let () =
  let c = Corpus.generate () in
  (* the nine registry checkers over every corpus protocol *)
  List.iter
    (fun (p : Corpus.protocol) ->
      List.iter
        (fun (ck : Registry.checker) ->
          section
            (Printf.sprintf "%s / %s" p.Corpus.name ck.Registry.name)
            (Registry.run ck ~spec:p.Corpus.spec p.Corpus.tus))
        Registry.all)
    c.Corpus.protocols;
  (* the executable golden protocol, clean and buggy *)
  List.iter
    (fun (variant, label) ->
      let tus = Golden.program variant in
      List.iter
        (fun (ck : Registry.checker) ->
          section
            (Printf.sprintf "%s / %s" label ck.Registry.name)
            (Registry.run ck ~spec:Golden.spec tus))
        Registry.all)
    [ (Golden.Clean, "golden-clean"); (Golden.Buggy, "golden-buggy") ];
  (* the paper's figures, compiled from metal concrete syntax *)
  List.iter
    (fun file ->
      let sm = Mdsl.load_file (Filename.concat "../../metal" file) in
      List.iter
        (fun (p : Corpus.protocol) ->
          section
            (Printf.sprintf "%s / metal:%s" p.Corpus.name file)
            (Engine.check sm (`Program p.Corpus.tus)))
        c.Corpus.protocols)
    [ "msglen_check.metal"; "refcount.metal"; "wait_for_db.metal" ]
