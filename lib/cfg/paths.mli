(** Exit-path statistics over a CFG — the paper's Table 1 metrics.

    "Paths" are unique entry-to-exit paths under the acyclic-path
    convention (back edges excluded, so each path traverses a loop body at
    most once, as in Ball–Larus path profiling).  Counts are computed by
    dynamic programming, exact even when huge; arithmetic saturates. *)

type stats = {
  n_paths : int;  (** unique entry-to-exit paths (saturating) *)
  total_length : int;  (** summed length over all paths (saturating) *)
  max_length : int;  (** longest path, in source statements *)
}

val analyze : Cfg.t -> stats

(** aggregate over a set of functions (one protocol) *)
type aggregate = {
  functions : int;
  paths : int;
  avg_length : float;  (** averaged over all paths of all functions *)
  max_path_length : int;
}

val aggregate : stats list -> aggregate

val enumerate : ?limit:int -> Cfg.t -> int list list
(** concrete paths as node-id lists, up to [limit]; used by tests to
    cross-check the DP counts on small functions *)
