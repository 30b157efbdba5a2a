(** Global symbol interner: one spelling, one id, one physical string.

    Thread-safe: interning is serialized behind a mutex with a
    per-domain read-through cache; [name] and [canon] on already-known
    strings are lock-free. *)

val intern : string -> int
(** [intern s] returns the dense id for [s], allocating one the first
    time the spelling is seen.  Ids are stable for the process
    lifetime. *)

val name : int -> string
(** [name id] is the canonical spelling interned under [id].  Raises
    [Invalid_argument] on an id never returned by {!intern}. *)

val canon : string -> string
(** [canon s] is the canonical physical string equal to [s]: every call
    with an equal string returns the same pointer, so [==] decides
    equality between canonicalized strings. *)

val find : string -> int option
(** [find s] is [Some id] when [s] is already interned, without
    allocating an id for unseen spellings. *)
