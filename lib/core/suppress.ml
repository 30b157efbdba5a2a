(** Annotation functions — the paper's false-positive mechanism.

    An aggressive static checker produces false positives; the paper's
    answer is a set of reserved functions (e.g. [has_buffer()],
    [no_free_needed()]) that the protocol writer calls to assert a
    condition the checker cannot see.  The checker honours the assertion
    and, crucially, keeps score: an annotation that never suppresses a
    warning is itself flagged, turning annotations into checkable
    comments. *)

type annotation = {
  ann_name : string;  (** reserved function name *)
  ann_loc : Loc.t;
  ann_func : string;  (** enclosing protocol function *)
  mutable ann_used : bool;  (** did it suppress a would-be warning? *)
}

type t = {
  reserved : string list;
  mutable seen : annotation list;
}

let create ~reserved = { reserved; seen = [] }

(** Record an annotation call encountered during checking; returns the
    record so the checker can later mark it used.  The same source site
    may be reached along many paths (and in several checker states), so
    records are deduplicated by location. *)
let record t ~name ~loc ~func : annotation =
  match
    List.find_opt
      (fun a ->
        String.equal a.ann_name name && Loc.equal a.ann_loc loc
        && String.equal a.ann_func func)
      t.seen
  with
  | Some existing -> existing
  | None ->
    let ann =
      { ann_name = name; ann_loc = loc; ann_func = func; ann_used = false }
    in
    t.seen <- ann :: t.seen;
    ann

let mark_used ann = ann.ann_used <- true

(** Annotations that suppressed at least one warning — the paper's
    "useful" count. *)
let useful t = List.filter (fun a -> a.ann_used) t.seen

(** Annotations that never fired — candidates for "this assertion is not
    needed on any path" warnings. *)
let unused t = List.filter (fun a -> not a.ann_used) t.seen
