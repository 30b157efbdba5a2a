(** A parser for the metal concrete syntax, as published.

    Accepts checkers written in the syntax of the paper's Figures 2 and 3
    — prelude block, [decl { kind } names;], [pat name = ...;], state
    sections with [pattern ==> target] rules, the [all] state and the
    [stop] target — and compiles them to engine-ready state machines.
    The files under [metal/] are the paper's figures verbatim. *)

exception Parse_error of string * Loc.t
(** the location points at the offending token ([Loc.none] when no
    position is known), so metal-spec errors print file:line:col *)

type target = { goto : string option; err : string option }
type rule = { rule_pattern : Pattern.t; target : target }

type t = {
  sm_name : string;
  decls : Pattern.decl list;
  named_patterns : (string * Pattern.t) list;
  states : (string * rule list) list;  (** in declaration order *)
  all_rules : rule list;
}

val parse : ?file:string -> string -> t
(** @raise Parse_error on malformed metal source *)

val load : ?file:string -> string -> string Sm.t
(** [to_sm (parse ?file src)] *)

val load_file : string -> string Sm.t
(** parse errors carry [path:line:col] *)

(** {2 Front-end internals, shared with the metal compiler}

    [lib/metalc] builds its located surface AST on the same
    offset-tracked lexer the interpreter uses, so both front ends agree
    byte-for-byte on what the concrete syntax means and where every
    token sits. *)

type token =
  | Ident of string
  | Code of string  (** the inside of a balanced [{ ... }] block *)
  | Colon
  | Semi
  | Bar
  | Comma
  | Equals
  | Arrow  (** [==>] *)
  | Eof

val tokenize : loc:(int -> Loc.t) -> string -> (token * int) list
(** token stream with start offsets; [Code] tokens point at the block's
    first non-blank content character (or its opening brace when empty)
    so diagnostics inside a block land on the offending text *)

(** the result of the textual phase 1: the machine's name and its
    brace-delimited body, plus the offset→location map phase 2 needs *)
type source = {
  src_name : string;  (** the [sm] name *)
  src_name_loc : Loc.t;
  src_body : string;  (** the text between the machine's braces *)
  src_loc : int -> Loc.t;
      (** body-relative byte offset → file location *)
}

val split_source : ?file:string -> string -> source
(** comment-strip (offset-preserving), skip the optional prelude block,
    and isolate [sm <name> { body }].
    @raise Parse_error on malformed top-level structure *)

val rebase_snippet_pos : Loc.t -> line:int -> col:int -> Loc.t
(** rebase a 1-based (line, col) position inside a snippet onto the file
    location of the snippet's first character *)

val kind_of_string : string -> Pattern.wildcard_kind
(** [decl { kind }] keyword → wildcard kind.
    @raise Parse_error (with [Loc.none]) on an unknown kind *)

val parse_action : string -> string option
(** the [err("...")] action inside a code block; [None] for an empty
    block.  @raise Parse_error (with [Loc.none]) on anything else *)
