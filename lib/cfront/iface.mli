(** A file's interface and the facts a scheduler needs of its functions,
    both without a single function body.

    The interface is what the rest of a program reads of a file: its
    function signatures and its other globals, locations and
    initialisers left out.  {!Typecheck} loads the program's globals
    from it, a default protocol spec takes its handlers from it, and its
    digest is the file's part of every cache key.  The function facts
    give a cache key to each function and the callgraph closure of a
    whole-program checker, so a warm re-check that finds every key it
    needs in its cache never holds an AST. *)

type item =
  | Sig of string * Ctype.t * (string * Ctype.t) list
      (** a function definition: name, return type, parameters *)
  | Decl of Ast.global
      (** any other global, its location and initialiser left out *)

val items : Ast.tunit -> item list
(** the unit's interface, in declaration order *)

val func_key : string -> Ast.func -> string option
(** the per-function half of a cache key: a digest of [file], the
    function's start location and its {!Ast.func.f_src_digest}; [None]
    for a function without a source digest (built or rewritten in
    memory) *)

type func_fact = {
  ff_name : string;
  ff_key : string option;  (** {!func_key} under the function's own file *)
  ff_callees : string list;
      (** the names its direct calls name, each once, in first-call
          order *)
}

type t = {
  i_items : item list;  (** {!items} *)
  i_digest : string;  (** a digest of [i_items] *)
  i_funcs : func_fact array;  (** every function definition, in source order *)
}

val of_tunit : Ast.tunit -> t
(** the unit's interface and function facts; reads no inferred type, so
    an unannotated unit gives the same value *)

val env_digest : t list -> string
(** the env digest of a program, its files in order: a digest of their
    interface digests.  Everything a unit's annotation and its checkers'
    results read from outside the unit's own function text is in it. *)
