(** Regenerates every table of the paper's evaluation from the synthetic
    corpus, with paper-published and measured values side by side
    (cells read "paper/measured"). *)

type class_counts = { bugs : int; minors : int; fps : int }

val table1 : Corpus.t -> Table.t
(** protocol size: LOC, paths, average/max path length *)

val table2 : Corpus.t -> Table.t
(** buffer race-condition checker *)

val table3 : Corpus.t -> Table.t
(** message-length checker *)

val table4 : Corpus.t -> Table.t
(** buffer management: errors, minor, useful/useless annotations *)

val table5 : Corpus.t -> Table.t
(** execution restrictions: violations, handlers, vars *)

val table6 : Corpus.t -> Table.t
(** the three lower-yield checks *)

val table7 : Corpus.t -> Table.t
(** the summary: per-checker LOC, errors, false positives *)

val all : Corpus.t -> Table.t list
