(** Annotation functions — the paper's false-positive mechanism.

    An aggressive static checker produces false positives; the paper's
    answer is a set of reserved assertion functions ([has_buffer()],
    [no_free_needed()]) the protocol writer calls to tell the checker
    something it cannot see.  The checker honours the assertion and keeps
    score: an annotation that never suppresses a warning is itself flagged,
    turning annotations into checkable comments (Section 6.1). *)

type annotation = {
  ann_name : string;
  ann_loc : Loc.t;
  ann_func : string;
  mutable ann_used : bool;
}

type t

val create : reserved:string list -> t

val record : t -> name:string -> loc:Loc.t -> func:string -> annotation
(** record an annotation call seen during checking; the checker marks it
    {!mark_used} when it actually changes a verdict *)

val mark_used : annotation -> unit

val useful : t -> annotation list
(** annotations that suppressed at least one warning (Table 4 "useful") *)

val unused : t -> annotation list
