(** Deterministic pseudo-random numbers (splitmix64) for corpus generation
    and workloads: runs must be bit-for-bit reproducible across machines. *)

type t

val create : seed:int -> t
val int : t -> int -> int
(** uniform in [0, bound) *)

val range : t -> int -> int -> int
(** uniform in [lo, hi] inclusive *)

val bool : t -> bool

val percent : t -> int -> bool
(** true with probability p/100 *)

val choose : t -> 'a list -> 'a
