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
    [mcheck --incremental] re-checks warm across process runs.

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

type t = {
  mutex : Mutex.t;
  table : (string, Diag.t list array) Hashtbl.t;
}

(* bump when the key derivation or the marshalled shape changes *)
let format_tag = "mcd-cache-v4" (* v4: footer-validated container *)

(* the container: [payload][magic 8][payload length 8][MD5(payload) 16] *)
let footer_magic = "MCDCACH1"
let footer_len = 8 + 8 + 16

let create () = { mutex = Mutex.create (); table = Hashtbl.create 1024 }

let locked c f =
  Mutex.lock c.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) f

let find c key =
  let r = locked c (fun () -> Hashtbl.find_opt c.table key) in
  Mcobs.count "mcd.cache.probe";
  Mcobs.count (if r = None then "mcd.cache.miss" else "mcd.cache.hit");
  r

let add c key diags =
  Mcobs.count "mcd.cache.store";
  locked c (fun () -> Hashtbl.replace c.table key diags)

let size c = locked c (fun () -> Hashtbl.length c.table)

let copy c = locked c (fun () -> { mutex = Mutex.create (); table = Hashtbl.copy c.table })

(* Atomic save: marshal to a string, append the footer, write the whole
   container to a temp file next to [path], then [rename] it into place.
   Readers either see the old cache or the complete new one, never a
   torn file — and if we crash mid-write only the temp file is lost. *)
let save c path =
  locked c (fun () ->
      let payload = Marshal.to_string (format_tag, c.table) [] in
      let footer = Buffer.create footer_len in
      Buffer.add_string footer footer_magic;
      Buffer.add_int64_le footer (Int64.of_int (String.length payload));
      Buffer.add_string footer (Digest.string payload);
      let dir = Filename.dirname path in
      let tmp = Filename.temp_file ~temp_dir:dir "mcd-cache" ".tmp" in
      (try
         let oc = open_out_bin tmp in
         Fun.protect
           ~finally:(fun () -> close_out oc)
           (fun () ->
             output_string oc payload;
             Buffer.output_buffer oc footer);
         Sys.rename tmp path
       with exn ->
         (try Sys.remove tmp with Sys_error _ -> ());
         raise exn))

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

(* A missing, truncated, corrupt or stale-format file is just a cold
   cache — [Marshal.from_string] only ever runs on a payload whose
   length and digest already checked out. *)
let load path =
  let cold reason =
    Mcobs.count ("mcd.cache.load." ^ reason);
    create ()
  in
  if not (Sys.file_exists path) then cold "missing"
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception _ -> cold "error"
    | data -> (
      match classify_container data with
      | Error Partial -> cold "partial"
      | Error Corrupt -> cold "corrupt"
      | Ok payload -> (
        match
          (Marshal.from_string payload 0
            : string * (string, Diag.t list array) Hashtbl.t)
        with
        | tag, table when String.equal tag format_tag ->
          Mcobs.count "mcd.cache.load.ok";
          { mutex = Mutex.create (); table }
        | _ -> cold "stale"
        | exception _ -> cold "corrupt"))

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

let publish_dir c dir =
  let payload =
    locked c (fun () -> Marshal.to_string (format_tag, c.table) [])
  in
  let hex = Digest.to_hex (Digest.string payload) in
  let seg = segment_path dir hex in
  if Sys.file_exists seg then begin
    (* someone already published identical content *)
    Mcobs.count "mcd.cache.publish.dup";
    Ok seg
  end
  else begin
    let claim = seg ^ ".claim" in
    match
      Unix.openfile claim [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644
    with
    | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
      (* another writer is publishing this very content right now —
         its rename will land the same bytes, so ours is redundant *)
      Mcobs.count "mcd.cache.publish.contended";
      Ok seg
    | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cache claim %s: %s" claim (Unix.error_message e))
    | claim_fd -> (
      (try Unix.close claim_fd with _ -> ());
      let release () = try Sys.remove claim with Sys_error _ -> () in
      match
        let footer = Buffer.create footer_len in
        Buffer.add_string footer footer_magic;
        Buffer.add_int64_le footer (Int64.of_int (String.length payload));
        Buffer.add_string footer (Digest.string payload);
        let tmp = Filename.temp_file ~temp_dir:dir "seg" ".tmp" in
        (try
           let oc = open_out_bin tmp in
           Fun.protect
             ~finally:(fun () -> close_out oc)
             (fun () ->
               output_string oc payload;
               Buffer.output_buffer oc footer);
           Sys.rename tmp seg
         with exn ->
           (try Sys.remove tmp with Sys_error _ -> ());
           raise exn)
      with
      | () ->
        release ();
        Mcobs.count "mcd.cache.publish.ok";
        Ok seg
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
  let cold reason = Mcobs.count ("mcd.cache.dir." ^ reason) in
  (match Sys.readdir dir with
  | exception Sys_error _ -> cold "missing"
  | names ->
    Array.sort String.compare names;
    Array.iter
      (fun name ->
        if is_segment name then begin
          let path = Filename.concat dir name in
          match
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          with
          | exception _ -> cold "error"
          | data -> (
            match classify_container data with
            | Error Partial -> cold "partial"
            | Error Corrupt -> cold "corrupt"
            | Ok payload -> (
              match
                (Marshal.from_string payload 0
                  : string * (string, Diag.t list array) Hashtbl.t)
              with
              | tag, table when String.equal tag format_tag ->
                cold "ok";
                merge ~into:acc { mutex = Mutex.create (); table }
              | _ -> cold "stale"
              | exception _ -> cold "corrupt"))
        end)
      names);
  acc
