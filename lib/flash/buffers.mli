(** The per-node data-buffer pool, with manual reference counting.

    Every incoming message is assigned a buffer by the hardware; the
    handler must release it.  The pool detects at run time the failures
    the paper's checkers find statically: leaks (the node can no longer
    accept messages and the machine deadlocks), double frees,
    use-after-free, and reads that race the hardware fill (Section 4). *)

type fault =
  | Double_free of int  (** buffer index *)
  | Use_after_free of int
  | Read_before_fill of int  (** the Section 4 race *)
  | Pool_exhausted

exception Fault of fault

type buffer = {
  index : int;
  mutable refcount : int;
  mutable filling : bool;  (** hardware still streaming the body in *)
  mutable words : int array;
}

type t

val words_per_buffer : int

val create : ?size:int -> ?trap:bool -> unit -> t
(** [trap] raises {!Fault} on the first fault instead of recording it *)

val free_count : t -> int

val allocate : ?filling:bool -> t -> buffer option
(** [None] (plus a recorded fault) when the pool is exhausted *)

val mark_full : buffer -> unit
(** the hardware finished filling the body — what WAIT_FOR_DB_FULL
    waits for *)

val incr_refcount : buffer -> unit
val free : t -> buffer -> unit

val read : t -> buffer -> synchronized:bool -> word:int -> int
(** an unsynchronised read of a still-filling buffer records the race
    and returns the not-yet-arrived value (0) *)

val write : t -> buffer -> word:int -> value:int -> unit
val faults : t -> fault list
val well_formed : t -> bool
