(** Global symbol interner.

    Every identifier the lexer produces is interned here, so one
    spelling maps to one id and — just as important for the hot paths —
    one physical [string].  Downstream comparisons ([Pattern.match_e],
    root dispatch, event-class screening) then start with a pointer
    equality that almost always decides, and the structure-of-arrays
    event buffers in [Prep] carry the dense ids directly.

    The table is process-global and append-only.  Interning takes a
    mutex, but each domain keeps a private cache of strings it has
    already resolved, so the steady-state cost of [intern]/[canon] on a
    repeated identifier is one local hashtable probe and no lock.
    [name] is lock-free: ids are published by writing the slot first
    and only then bumping the atomic count, so any id a reader can
    legally hold already has its slot filled. *)

let mutex = Mutex.create ()
let ids : (string, int) Hashtbl.t = Hashtbl.create 1024

(* snapshot array: grows geometrically; [count] is the publication
   barrier — slot [i] is written before [count] moves past [i] *)
let names : string array Atomic.t = Atomic.make (Array.make 64 "")
let count = Atomic.make 0

(* per-domain read-through cache: string -> id.  Lexers in separate Mcd
   domains intern the same handful of identifiers over and over; the
   cache keeps them off the global mutex. *)
let local_key : (string, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let intern_slow (s : string) : int =
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mutex)
    (fun () ->
      match Hashtbl.find_opt ids s with
      | Some id -> id
      | None ->
        let id = Atomic.get count in
        let arr = Atomic.get names in
        let arr =
          if id < Array.length arr then arr
          else begin
            let bigger = Array.make (2 * Array.length arr) "" in
            Array.blit arr 0 bigger 0 (Array.length arr);
            Atomic.set names bigger;
            bigger
          end
        in
        arr.(id) <- s;
        Hashtbl.add ids s id;
        (* publish: the slot write above must be visible before the
           count moves — sequential consistency of [Atomic.set] gives
           readers the happens-before edge *)
        Atomic.set count (id + 1);
        id)

let intern (s : string) : int =
  let local = Domain.DLS.get local_key in
  match Hashtbl.find_opt local s with
  | Some id -> id
  | None ->
    let id = intern_slow s in
    Hashtbl.add local s id;
    id

let name (id : int) : string =
  if id < 0 || id >= Atomic.get count then
    invalid_arg (Printf.sprintf "Symtab.name: unknown id %d" id)
  else (Atomic.get names).(id)

(* the canonical spelling is the string stored at intern time: every
   [canon] of an equal string returns that same physical string *)
let canon (s : string) : string = name (intern s)

let find (s : string) : int option =
  let local = Domain.DLS.get local_key in
  match Hashtbl.find_opt local s with
  | Some id -> Some id
  | None ->
    Mutex.lock mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mutex)
      (fun () ->
        match Hashtbl.find_opt ids s with
        | Some id ->
          Hashtbl.add local s id;
          Some id
        | None -> None)
