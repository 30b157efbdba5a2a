(** Deterministic pseudo-random numbers for corpus generation.

    A splitmix64 generator: the synthetic protocol corpus must be
    bit-for-bit reproducible across runs and machines, so we do not use
    [Random] (whose default state is shared and whose algorithm is not
    pinned by this project). *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then 0
  else
    let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    r mod bound

(** Uniform int in [lo, hi] inclusive. *)
let range t lo hi = lo + int t (hi - lo + 1)

let bool t = int t 2 = 0

(** True with probability [p] out of 100. *)
let percent t p = int t 100 < p

(** Pick a uniformly random element. *)
let choose t = function
  | [] -> invalid_arg "Rng.choose: empty list"
  | xs -> List.nth xs (int t (List.length xs))
