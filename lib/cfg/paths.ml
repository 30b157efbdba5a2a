(** Exit-path statistics over a CFG.

    Reproduces the paper's Table 1 metrics: the number of unique paths from
    the beginning of a function to all of its exit points, and the
    average/maximum path length.  Loops are handled the way a path profiler
    must: back edges are excluded, so each "path" traverses every loop body
    at most once (the acyclic-path convention of Ball–Larus profiling).

    Counts are computed by dynamic programming on the acyclic graph, so they
    are exact even when the number of paths is astronomically large;
    saturating arithmetic guards against overflow. *)

type stats = {
  n_paths : int;  (** unique entry-to-exit paths (saturating) *)
  total_length : int;  (** summed length over all paths (saturating) *)
  max_length : int;  (** longest path, counted in source statements *)
}

let saturating_add a b =
  let s = a + b in
  if s < a || s < b then max_int else s

let saturating_mul a b =
  if a = 0 || b = 0 then 0
  else if a > max_int / b then max_int
  else a * b

(* Membership-testable back-edge set: [Cfg.back_edges] returns a list,
   and probing it with [List.exists] per successor made the DP (and the
   enumerator) quadratic in loop count on loop-heavy functions. *)
let back_edge_set (cfg : Cfg.t) : (int * int, unit) Hashtbl.t =
  let backs = Cfg.back_edges cfg in
  let set = Hashtbl.create (max 8 (2 * List.length backs)) in
  List.iter (fun edge -> Hashtbl.replace set edge ()) backs;
  set

(* Path length is measured in distinct source lines touched, which tracks
   the paper's "length of the path (as LOC)".  Each statement-bearing node
   contributes one. *)
let node_weight (n : Cfg.node) =
  match n.Cfg.kind with
  | Cfg.Stmt _ | Cfg.Branch _ | Cfg.Switch _ | Cfg.Return _ -> 1
  | Cfg.Entry | Cfg.Exit | Cfg.Join -> 0

(** Compute path statistics for one CFG. *)
let analyze (cfg : Cfg.t) : stats =
  let n = Cfg.n_nodes cfg in
  let backs = back_edge_set cfg in
  let is_back src dst = Hashtbl.mem backs (src, dst) in
  (* memo.(id) = Some (count, sum, max) of paths from id to exit *)
  let memo : (int * int * int) option array = Array.make n None in
  let rec solve id =
    match memo.(id) with
    | Some r -> r
    | None ->
      let node = Cfg.node cfg id in
      let w = node_weight node in
      let r =
        if id = cfg.Cfg.exit then (1, 0, 0)
        else begin
          let fwd =
            List.filter (fun (_, s) -> not (is_back id s)) node.Cfg.succs
          in
          match fwd with
          | [] ->
            (* dead end other than exit (e.g. infinite loop): count the
               truncated path itself *)
            (1, w, w)
          | _ ->
            List.fold_left
              (fun (c, s, m) (_, succ) ->
                let c', s', m' = solve succ in
                ( saturating_add c c',
                  saturating_add s
                    (saturating_add s' (saturating_mul w c')),
                  max m (w + m') ))
              (0, 0, 0) fwd
        end
      in
      memo.(id) <- Some r;
      r
  in
  let count, sum, max_len = solve cfg.Cfg.entry in
  { n_paths = count; total_length = sum; max_length = max_len }

(** Aggregate statistics over a set of functions (one protocol). *)
type aggregate = {
  functions : int;
  paths : int;
  avg_length : float;  (** averaged over all paths of all functions *)
  max_path_length : int;
}

let aggregate (stats : stats list) : aggregate =
  let functions = List.length stats in
  let paths =
    List.fold_left (fun acc s -> saturating_add acc s.n_paths) 0 stats
  in
  let total =
    List.fold_left (fun acc s -> saturating_add acc s.total_length) 0 stats
  in
  let max_path_length =
    List.fold_left (fun acc s -> max acc s.max_length) 0 stats
  in
  let avg_length =
    if paths = 0 then 0.0 else float_of_int total /. float_of_int paths
  in
  { functions; paths; avg_length; max_path_length }

(** Enumerate concrete paths (lists of node ids) up to [limit]; used by
    tests to cross-check the DP counts on small functions. *)
let enumerate ?(limit = 10_000) (cfg : Cfg.t) : int list list =
  let backs = back_edge_set cfg in
  let is_back src dst = Hashtbl.mem backs (src, dst) in
  let results = ref [] in
  let count = ref 0 in
  let rec go path id =
    if !count >= limit then ()
    else if id = cfg.Cfg.exit then begin
      incr count;
      results := List.rev (id :: path) :: !results
    end
    else
      let fwd =
        List.filter (fun (_, s) -> not (is_back id s)) (Cfg.succs cfg id)
      in
      match fwd with
      | [] ->
        incr count;
        results := List.rev (id :: path) :: !results
      | _ -> List.iter (fun (_, s) -> go (id :: path) s) fwd
  in
  go [] cfg.Cfg.entry;
  List.rev !results
