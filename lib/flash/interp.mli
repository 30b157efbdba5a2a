(** An interpreter for Clite protocol code against the MAGIC machine model.

    The execution half of the FlashLite substitute: handlers parsed by the
    front end run directly on a model node (buffer pool, lanes, handler
    globals), with every MAGIC macro given its hardware semantics and
    runtime failures surfacing as {!fault}s — the same classes the static
    checkers hunt. *)

exception Fatal of string

type fault =
  | F_buffer of Buffers.fault
  | F_lane of Lanes.fault
  | F_len_mismatch of string  (** opcode of the inconsistent send *)
  | F_fatal of string

(** The mutable per-node state handlers run against. *)
type node = {
  id : int;
  n_nodes : int;
  buffers : Buffers.t;
  lanes : Lanes.t;
  globals : (string, int) Hashtbl.t;
      (** handler globals addressed by dotted path ("header.nh.len",
          "dirEntry.vector", plain names for scalars) *)
  mutable current_buffer : Buffers.buffer option;
  mutable db_synchronized : bool;
  mutable outstanding_wait : string option;
  mutable faults : fault list;
  mutable sent : Message.t list;
  mutable hook_calls : int;
  intervention_data : int -> int;
  mutable custom : string -> int list -> int option;
      (** simulator-provided builtins (memory and cache services) *)
}

val create_node :
  ?n_nodes:int ->
  ?buffer_count:int ->
  ?intervention_data:(int -> int) ->
  int ->
  node

val global : node -> string -> int
val set_global : node -> string -> int -> unit

type env

val make_env :
  ?max_steps:int ->
  node:node ->
  program:Callgraph.t ->
  consts:(string, int) Hashtbl.t ->
  unit ->
  env

val consts_of_program : Ast.tunit list -> (string, int) Hashtbl.t
(** enum constants, so protocol code can refer to them *)

val call_function : env -> Ast.func -> int list -> int
(** call a function with arguments; loops/recursion bounded by the env's
    fuel *)

val run_handler :
  ?max_steps:int ->
  node:node ->
  program:Callgraph.t ->
  consts:(string, int) Hashtbl.t ->
  Ast.func ->
  fault list * Message.t list
(** run one handler to completion; returns the faults recorded during the
    run and the messages it sent, in order *)
