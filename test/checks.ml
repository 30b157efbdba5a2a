(** Test fixtures: checker runs and corpus protocols by name. *)

(** one built-in checker through {!Registry.run}, the reference every
    driver is tested against *)
let run name ~spec tus =
  Registry.run (Option.get (Registry.find name)) ~spec tus

(** one protocol of a generated corpus, by name *)
let protocol (corpus : Corpus.t) name =
  List.find (fun p -> String.equal p.Corpus.name name) corpus.Corpus.protocols
