(** Network output lanes with finite queues (Section 7).

    FLASH runs a handler only when its assigned lanes have space for its
    worst-case sends; sending beyond the allowance without an explicit
    space check can deadlock the machine.  This model enforces finite
    capacity and records overcommits. *)

type fault = Lane_overflow of int  (** lane index *)

type t

val create : ?capacity:int -> unit -> t
val space : t -> int -> int

val send : t -> Message.t -> bool
(** [false] (plus a recorded fault) when the lane is full *)

val drain : t -> Message.t list
(** at most one message per lane, reply lanes first (replies must make
    progress for deadlock avoidance to be sound) *)

val pending : t -> int
val faults : t -> fault list
