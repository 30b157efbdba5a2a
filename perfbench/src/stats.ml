(* Order statistics for the benchmark's samples. *)

(* Linear interpolation between closest ranks (the "type 7" estimator):
   rank h = (n - 1) p over the sorted samples.  nan on an empty sample. *)
let quantile (xs : float array) (p : float) : float =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let h = float_of_int (n - 1) *. Float.min 1. (Float.max 0. p) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

type summary = { n : int; median : float; q1 : float; q3 : float }

let summarize xs =
  { n = Array.length xs; median = median xs; q1 = quantile xs 0.25;
    q3 = quantile xs 0.75 }
