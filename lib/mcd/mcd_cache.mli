(** The incremental result cache: content-hash keys (checker set x spec x
    function text) to per-checker diagnostic slices.  Invalidation is
    automatic — editing a function changes its key.  Persistable with
    [save]/[load] for warm re-checks across process runs
    ([mcheck --incremental]). *)

type t

val create : unit -> t

val find : t -> string -> Diag.t list array option
(** a hit returns the unit's per-checker slices: one slice per
    per-function checker for a function-batched unit, a single-element
    array for a whole-program unit *)

val add : t -> string -> Diag.t list array -> unit
val size : t -> int

val copy : t -> t
(** an independent snapshot (used by tests to replay warm runs) *)

val save : t -> string -> unit
(** atomic: the marshalled table and unit index plus a magic / length /
    digest footer is written to a temp file in the destination directory
    and renamed into place, so a crash mid-save leaves the previous cache
    file intact.  The unit blobs stored since the last save are written
    first, each the same way, into the sidecar directory [FILE.ast/];
    after the index lands, every blob there that it does not name is
    removed. *)

val load : string -> t
(** a missing, truncated, corrupt, or stale-format file yields an empty
    cache — the footer is validated before any unmarshalling runs, and
    the failure class is recorded as an [mcd.cache.load.*] counter
    ([ok] / [missing] / [partial] / [corrupt] / [stale] / [error]) *)

(** {2 Front-end units}

    A cache file also persists each source file's parsed and annotated
    unit, so a warm re-check parses only the files that changed.  The
    index maps a file's path to one {!unit_entry}; the unit itself, with
    its [lex]/[parse] diagnostics, is a blob marshalled without sharing
    into [FILE.ast/<md5>], named by the MD5 of its bytes. *)

type unit_entry = {
  u_key : string;  (** {!unit_key} of the text the unit was parsed from *)
  u_typedefs : string list;
      (** the typedef names the file declares, in declaration order, so
          later files' scopes are known without decoding it *)
  u_env : string;
      (** the env digest ([Mcd.env_digest]) of the program the unit was
          annotated in *)
  u_blob : string;  (** the blob's name: the hex MD5 of its bytes *)
}

val unit_key : ?build:string -> file:string -> scope:string list -> string -> string
(** the key of one file's parse: the MD5 of its source text, its path,
    the typedef names in scope (as the parser receives them) and the
    front-end build digest [build] (default {!Cfront_build.digest}) with
    the OCaml version — everything a parse depends on, so an equal key
    means an equal unit, and no build reads a blob another build wrote *)

val find_unit : t -> string -> unit_entry option
(** the index entry of a path *)

val store_unit :
  t ->
  file:string ->
  key:string ->
  typedefs:string list ->
  env:string ->
  Ast.tunit * Diag.t list ->
  unit
(** marshal an annotated unit into a blob, index it under [file], and
    hold the blob until the next {!save} writes it *)

val read_unit :
  path:string ->
  unit_entry ->
  (Ast.tunit * Diag.t list, [ `Missing | `Corrupt ]) result
(** read and decode an entry's blob from the sidecar of the cache file
    [path]; the bytes' MD5 is checked against the blob's name before
    they are unmarshalled.  Touches no cache state, so it may run on any
    domain. *)

(** {2 Multi-writer cache directories}

    Concurrent worker processes share warm results through a directory
    of content-addressed segments ([seg-<md5>.mc]), each a complete
    footer-validated container.  Writers never take a lock: identical
    content races to the same name (the loser skips), a lock-free claim
    file ([O_CREAT|O_EXCL]) suppresses duplicate publication work, and
    the segment itself lands by temp-file + [rename], so readers never
    observe a torn write.  Corrupt, partial, or stale segments are
    classified and skipped at load ([mcd.cache.dir.*] counters). *)

val merge : into:t -> t -> unit
(** fold [src]'s result entries into [into]; existing keys win (results
    are content-addressed, so a duplicate key carries identical value).
    Unit index entries are not merged. *)

val publish_dir : t -> string -> (string option, string) result
(** atomically publish, as one segment in [dir], the entries {!add}ed
    since the last successful publish (not those from {!merge},
    {!load} or {!load_dir}); returns the segment path (which may already
    have existed — identical content is deduplicated, a concurrent
    identical publish is skipped), or [None] when there is nothing new.
    On [Error] the entries stay pending for the next publish. *)

val load_dir : string -> t
(** merge every valid segment in [dir] into a fresh cache; a missing
    directory or invalid segment is cold data, never an error *)
