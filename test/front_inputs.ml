(** Inputs the front end is pinned and differentially tested on.

    [protocols seed] is corpus seed [seed]'s sources, one (file, text)
    list per protocol, for seeds 0-15; each seed is generated once per
    test run.  [units] are the golden protocol and the panic-mode
    recovery inputs, each a labelled (file, text) list. *)

let seeds = List.init 16 Fun.id

let memo =
  Array.init 16 (fun seed ->
      lazy
        (List.map
           (fun (p : Corpus.protocol) -> p.Corpus.files)
           (Corpus.generate ~seed ()).Corpus.protocols))

let protocols seed = Lazy.force memo.(seed)

(** every file of [seed]'s corpus *)
let files seed = List.concat (protocols seed)

let units =
  [
    ("golden-clean", [ ("golden.c", Golden.source Golden.Clean) ]);
    ("golden-buggy", [ ("golden.c", Golden.source Golden.Buggy) ]);
  ]
  @ List.map
      (fun (label, src) -> ("recover-" ^ label, [ (label ^ ".c", src) ]))
      Recover_cases.cases
