(** The per-node data-buffer pool, with manual reference counting.

    Every incoming message is assigned a buffer by the hardware (reference
    count incremented); the handler must decrement it when done.  The pool
    detects at run time the three classic failures the paper's Section 6
    checker finds statically: leaks (all buffers lost — the node can no
    longer accept messages and the machine deadlocks), double frees, and
    use-after-free. *)

type fault =
  | Double_free of int  (** buffer index *)
  | Use_after_free of int
  | Read_before_fill of int  (** the Section 4 race: read while filling *)
  | Pool_exhausted  (** leak has consumed every buffer *)

exception Fault of fault

type buffer = {
  index : int;
  mutable refcount : int;
  mutable filling : bool;  (** hardware still streaming the body in *)
  mutable words : int array;
}

type t = {
  buffers : buffer array;
  mutable allocations : int;  (** statistics *)
  mutable frees : int;
  mutable faults : fault list;  (** recorded when [trap = false] *)
  trap : bool;  (** raise on fault instead of recording *)
}

let words_per_buffer = 16

let create ?(size = 16) ?(trap = false) () =
  {
    buffers =
      Array.init size (fun index ->
          {
            index;
            refcount = 0;
            filling = false;
            words = Array.make words_per_buffer 0;
          });
    allocations = 0;
    frees = 0;
    faults = [];
    trap;
  }

let report t fault =
  if t.trap then raise (Fault fault) else t.faults <- fault :: t.faults

let free_count t =
  Array.fold_left
    (fun acc b -> if b.refcount = 0 then acc + 1 else acc)
    0 t.buffers

(** Allocate a buffer (refcount 1).  Returns [None] when the pool is
    exhausted; callers model the protocol's mandatory failure check. *)
let allocate ?(filling = false) t : buffer option =
  match Array.find_opt (fun b -> b.refcount = 0) t.buffers with
  | Some b ->
    b.refcount <- 1;
    b.filling <- filling;
    Array.fill b.words 0 words_per_buffer 0;
    t.allocations <- t.allocations + 1;
    Some b
  | None ->
    report t Pool_exhausted;
    None

(** Hardware finished filling the buffer body (what WAIT_FOR_DB_FULL
    waits for). *)
let mark_full b = b.filling <- false

let incr_refcount b = b.refcount <- b.refcount + 1

let free t (b : buffer) =
  if b.refcount <= 0 then report t (Double_free b.index)
  else begin
    b.refcount <- b.refcount - 1;
    t.frees <- t.frees + 1
  end

let read t (b : buffer) ~synchronized ~word : int =
  if b.refcount <= 0 then begin
    report t (Use_after_free b.index);
    0
  end
  else if b.filling && not synchronized then begin
    report t (Read_before_fill b.index);
    (* model the race: the word may not have arrived yet *)
    0
  end
  else b.words.(word mod words_per_buffer)

let write t (b : buffer) ~word ~value =
  if b.refcount <= 0 then report t (Use_after_free b.index)
  else b.words.(word mod words_per_buffer) <- value

let faults t = List.rev t.faults

(** Invariant used by property tests: refcounts never negative, frees
    never exceed allocations plus hardware fills. *)
let well_formed t = Array.for_all (fun b -> b.refcount >= 0) t.buffers
