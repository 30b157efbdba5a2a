(** The incremental result cache.

    Maps a content-hash key — the per-function-checker set x protocol
    spec x the job's globals and signatures x a function's location and
    source digest (or, for whole-program checkers, the checker identity
    x spec x globals x its callgraph-reachable dependency set) — to the
    per-checker diagnostic slices that unit produced.  Because the key covers everything a unit's result depends
    on, invalidation is automatic: an edited function hashes to a fresh
    key and simply misses.

    A value is one [Diag.t list array]: a function-batched unit stores
    one slice per per-function checker (in registry order); a
    whole-program unit stores a single-element array.

    The scheduler does every lookup and store from the coordinating
    domain (hits are resolved before work is enqueued, misses are stored
    after the pool joins), so the table itself needs no locking; a mutex
    guards it anyway so ad-hoc callers cannot corrupt it.

    [save]/[load] marshal the table to disk, which is what makes
    [mcheck --incremental] re-checks warm across process runs.  The same
    file carries the front-end index, whose unit blobs live in the
    [FILE.ast/] sidecar (see the interface).

    {2 Crash safety}

    [Marshal.from_channel] on attacker- or crash-shaped bytes can do
    anything from raising to segfaulting, so the on-disk format defends
    itself *before* unmarshalling: the marshalled payload is followed by
    a fixed 32-byte footer — magic, payload length, MD5 digest — and
    [load] verifies all three against the bytes actually read.  A torn
    write (power loss mid-[save]) fails the length or digest check; a
    flipped byte fails the digest; a file from an older build fails the
    magic or the format tag inside the payload.  Every such file is
    treated as a cold cache, never an error — and [save] itself writes
    to a temp file in the destination directory and [rename]s it into
    place, so a crash mid-save leaves the previous cache intact. *)

type unit_entry = {
  u_key : string;
  u_typedefs : string list;
  u_env : string;
  u_blob : string;
}

type t = {
  mutex : Mutex.t;
  table : (string, Diag.t list array) Hashtbl.t;
  units : (string, unit_entry) Hashtbl.t;  (** the front-end index, by path *)
  fresh : (string, string) Hashtbl.t;
      (** blobs stored since the last [save], by name, not yet on disk *)
  unpublished : (string, unit) Hashtbl.t;
      (** result keys [add]ed since the last successful [publish_dir] *)
}

(* bump when the key derivation or the marshalled shape changes *)
let format_tag = "mcd-cache-v5" (* v5: content spec digests, unit index *)

(* the container: [payload][magic 8][payload length 8][MD5(payload) 16] *)
let footer_magic = "MCDCACH1"
let footer_len = 8 + 8 + 16

let make table units =
  {
    mutex = Mutex.create ();
    table;
    units;
    fresh = Hashtbl.create 8;
    unpublished = Hashtbl.create 64;
  }

let create () = make (Hashtbl.create 1024) (Hashtbl.create 8)

let locked c f =
  Mutex.lock c.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) f

(* [Mcd] counts the probes, hits and misses: a unit is one probe *)
let find c key = locked c (fun () -> Hashtbl.find_opt c.table key)

let m_stores = Mcobs.counter "mcd.cache.store"
let m_publish_dup = Mcobs.counter "mcd.cache.publish.dup"
let m_publish_contended = Mcobs.counter "mcd.cache.publish.contended"
let m_publish_ok = Mcobs.counter "mcd.cache.publish.ok"

(* why a load was cold, one counter per class: rare events, so the
   counter is resolved when it happens *)
let count_load prefix reason = Mcobs.inc (Mcobs.counter (prefix ^ reason))

let add c key diags =
  Mcobs.inc m_stores;
  locked c (fun () ->
      Hashtbl.replace c.table key diags;
      Hashtbl.replace c.unpublished key ())

let size c = locked c (fun () -> Hashtbl.length c.table)

let copy c =
  locked c (fun () ->
      let c' = make (Hashtbl.copy c.table) (Hashtbl.copy c.units) in
      Hashtbl.iter (Hashtbl.replace c'.fresh) c.fresh;
      Hashtbl.iter (Hashtbl.replace c'.unpublished) c.unpublished;
      c')

(* One marshalled shape for the single file and the directory segments:
   the format tag, then the rest, which is only read once the tag
   matched.  A file of an older format is still a pair whose first
   component is its tag, so it reads as stale whatever its rest. *)
type payload =
  string
  * ((string, Diag.t list array) Hashtbl.t * (string, unit_entry) Hashtbl.t)

let payload table units =
  Marshal.to_string ((format_tag, (table, units)) : payload) []

(* Write [contents] to [path] atomically: a temp file in the same
   directory, renamed into place.  Readers see the old file or the
   complete new one, never a torn one; a crash mid-write loses only the
   temp file. *)
let write_atomic ~prefix path contents =
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path) prefix ".tmp"
  in
  try
    Out_channel.with_open_bin tmp (fun oc -> output_string oc contents);
    Sys.rename tmp path
  with exn ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise exn

let container payload =
  let b = Buffer.create (String.length payload + footer_len) in
  Buffer.add_string b payload;
  Buffer.add_string b footer_magic;
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_string b (Digest.string payload);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Front-end units: the index and the blob sidecar                     *)
(* ------------------------------------------------------------------ *)

let unit_key ?(build = Cfront_build.digest) ~file ~scope src =
  (* the source digest has a fixed length, so the rest cannot run into it *)
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          (Digest.to_hex (Digest.string src)
          :: build :: Sys.ocaml_version :: file :: scope)))

let find_unit c file = locked c (fun () -> Hashtbl.find_opt c.units file)

let store_unit c ~file ~key ~typedefs ~env (u : Ast.tunit * Diag.t list) =
  let blob = Marshal.to_string u [ Marshal.No_sharing ] in
  let name = Digest.to_hex (Digest.string blob) in
  locked c (fun () ->
      Hashtbl.replace c.units file
        { u_key = key; u_typedefs = typedefs; u_env = env; u_blob = name };
      Hashtbl.replace c.fresh name blob)

let sidecar path = path ^ ".ast"

(* [Marshal.from_channel] only runs on bytes whose MD5 is the blob's
   name, and only a build whose key matched looks the blob up *)
let read_unit ~path (e : unit_entry) =
  match open_in_bin (Filename.concat (sidecar path) e.u_blob) with
  | exception Sys_error _ -> Error `Missing
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (* digest, then decode, the one open file: a blob is replaced
           only by [rename], never written in place *)
        match Digest.channel ic (-1) with
        | exception _ -> Error `Corrupt
        | d when not (String.equal (Digest.to_hex d) e.u_blob) -> Error `Corrupt
        | _ -> (
          seek_in ic 0;
          match (Marshal.from_channel ic : Ast.tunit * Diag.t list) with
          | u -> Ok u
          | exception _ -> Error `Corrupt))

let is_blob_name name =
  String.length name = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) name

let named_blobs c =
  let named = Hashtbl.create 64 in
  Hashtbl.iter (fun _ e -> Hashtbl.replace named e.u_blob ()) c.units;
  named

(* the blobs stored since the last save that the index still names *)
let write_blobs c path named =
  if Hashtbl.length c.fresh > 0 then begin
    let dir = sidecar path in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    Hashtbl.iter
      (fun name blob ->
        (* written even when the name exists: a damaged file there
           would otherwise never be replaced *)
        if Hashtbl.mem named name then
          write_atomic ~prefix:"blob" (Filename.concat dir name) blob)
      c.fresh;
    Hashtbl.reset c.fresh
  end

let prune_blobs path named =
  match Sys.readdir (sidecar path) with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        if is_blob_name name && not (Hashtbl.mem named name) then
          try Sys.remove (Filename.concat (sidecar path) name)
          with Sys_error _ -> ())
      names

(* blobs land before the index that names them, and unnamed ones go
   only after it, so a crash at any point leaves an index whose blobs
   are on disk *)
let save c path =
  locked c (fun () ->
      let named = named_blobs c in
      write_blobs c path named;
      write_atomic ~prefix:"mcd-cache" path
        (container (payload c.table c.units));
      prune_blobs path named)

(* Why a load was cold, for the Mcobs counters: a crash-truncated file
   looks different from a corrupted or stale one, and the fault-injection
   harness asserts each class lands in the right bucket. *)
type load_failure = Partial | Corrupt

let classify_container (data : string) : (string, load_failure) result =
  let len = String.length data in
  if len < footer_len then Error Partial
  else begin
    let payload_len = len - footer_len in
    let magic = String.sub data payload_len 8 in
    let stored_len = String.get_int64_le data (payload_len + 8) in
    let stored_digest = String.sub data (payload_len + 16) 16 in
    if not (String.equal magic footer_magic) then Error Corrupt
    else if stored_len <> Int64.of_int payload_len then Error Partial
    else
      let payload = String.sub data 0 payload_len in
      if not (String.equal (Digest.string payload) stored_digest) then
        Error Corrupt
      else Ok payload
  end

(* Read one container: its results table and unit index, or the
   [mcd.cache.*] counter suffix saying why it is cold.
   [Marshal.from_string] only ever runs on a payload whose length and
   digest already checked out. *)
let read_container path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception _ -> Error "error"
  | data -> (
    match classify_container data with
    | Error Partial -> Error "partial"
    | Error Corrupt -> Error "corrupt"
    | Ok payload -> (
      match (Marshal.from_string payload 0 : payload) with
      | tag, rest when String.equal tag format_tag -> Ok rest
      | _ -> Error "stale"
      | exception _ -> Error "corrupt"))

(* A missing, truncated, corrupt or stale-format file is just a cold
   cache. *)
let load path =
  let reason, c =
    if not (Sys.file_exists path) then ("missing", create ())
    else
      match read_container path with
      | Ok (table, units) -> ("ok", make table units)
      | Error reason -> (reason, create ())
  in
  count_load "mcd.cache.load." reason;
  c

(* ------------------------------------------------------------------ *)
(* Multi-writer cache directories                                      *)
(* ------------------------------------------------------------------ *)

(* Concurrent worker processes share warm results through a directory
   of content-addressed segments: [seg-<md5(payload)>.mc], each a
   complete footer-validated container.  Content addressing makes
   publish races benign — two writers with the same entries race to
   the same name and the loser simply skips — and the claim-file dance
   (O_CREAT|O_EXCL, lock-free) keeps even *different* writers of the
   same segment from doing duplicate work.  Publication itself is the
   classic temp-in-dir + rename, so readers never observe a torn
   segment; corrupt or partial segments (crashed writers, chaos
   injection) are classified and skipped at load exactly like the
   single-file path. *)

let merge ~into src =
  locked src (fun () ->
      locked into (fun () ->
          Hashtbl.iter
            (fun k v ->
              if not (Hashtbl.mem into.table k) then Hashtbl.add into.table k v)
            src.table))

let segment_path dir hex = Filename.concat dir (Printf.sprintf "seg-%s.mc" hex)

(* Only the entries [add]ed since the last successful publish go into a
   segment: what a worker merged from other segments is already on
   disk, so re-publishing it would grow the directory with every round. *)
let publish_dir c dir =
  let keys, payload =
    locked c (fun () ->
        let delta = Hashtbl.create (Hashtbl.length c.unpublished) in
        Hashtbl.iter
          (fun k () -> Hashtbl.replace delta k (Hashtbl.find c.table k))
          c.unpublished;
        ( List.of_seq (Hashtbl.to_seq_keys delta),
          payload delta (Hashtbl.create 1) ))
  in
  let published seg =
    locked c (fun () -> List.iter (Hashtbl.remove c.unpublished) keys);
    Ok (Some seg)
  in
  let seg = segment_path dir (Digest.to_hex (Digest.string payload)) in
  if keys = [] then Ok None
  else if Sys.file_exists seg then begin
    (* someone already published identical content *)
    Mcobs.inc m_publish_dup;
    published seg
  end
  else begin
    let claim = seg ^ ".claim" in
    match
      Unix.openfile claim [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644
    with
    | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
      (* another writer is publishing this very content right now —
         its rename will land the same bytes, so ours is redundant *)
      Mcobs.inc m_publish_contended;
      published seg
    | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cache claim %s: %s" claim (Unix.error_message e))
    | claim_fd -> (
      (try Unix.close claim_fd with _ -> ());
      let release () = try Sys.remove claim with Sys_error _ -> () in
      match
        write_atomic ~prefix:"seg" seg (container payload)
      with
      | () ->
        release ();
        Mcobs.inc m_publish_ok;
        published seg
      | exception exn ->
        release ();
        Error (Printexc.to_string exn))
  end

let is_segment name =
  String.length name > 7
  && String.sub name 0 4 = "seg-"
  && Filename.check_suffix name ".mc"

let load_dir dir =
  let acc = create () in
  let cold = count_load "mcd.cache.dir." in
  (match Sys.readdir dir with
  | exception Sys_error _ -> cold "missing"
  | names ->
    Array.sort String.compare names;
    Array.iter
      (fun name ->
        if is_segment name then
          match read_container (Filename.concat dir name) with
          | Ok (table, units) ->
            cold "ok";
            merge ~into:acc (make table units)
          | Error reason -> cold reason)
      names);
  acc
