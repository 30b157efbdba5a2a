(** Source-code patterns, metal style.

    A pattern is written in the base language (Clite) with some
    identifiers declared as typed wildcards, mirroring metal's

    {v
      decl { scalar } addr, buf;
      { WAIT_FOR_DB_FULL(addr); }
    v}

    which here reads

    {[
      Pattern.expr ~decls:[ ("addr", Pattern.Scalar) ] "WAIT_FOR_DB_FULL(addr)"
    ]}

    Patterns match abstract-syntax subtrees structurally; wildcards match
    any expression whose inferred type satisfies the wildcard's kind, and
    repeated wildcards must match structurally equal expressions. *)

(** Typed wildcard kinds — metal's [decl { kind }]. *)
type wildcard_kind =
  | Any  (** matches any expression *)
  | Scalar  (** integers and pointers — metal's [scalar] *)
  | Unsigned_int  (** metal's [unsigned] *)
  | Floating  (** float/double-typed expressions *)
  | Constant  (** literal constants only *)

type decl = string * wildcard_kind

type t

exception Parse_error of string

val expr : ?decls:decl list -> string -> t
(** [expr ~decls src] parses [src] as a Clite expression, treating each
    identifier named in [decls] as a wildcard.
    @raise Parse_error when [src] is not a valid expression. *)

val expr_located :
  ?decls:decl list -> string -> (t, string * int * int) result
(** [expr] with a structured failure: the message plus the 1-based line
    and column of the offending token within the snippet, so callers
    embedding patterns in a larger source (the metal front ends) can
    rebase the position onto the enclosing file *)

val alt : t list -> t
(** ordered disjunction — metal's [p1 | p2] *)

val call : string -> arity:int -> t
(** [call name ~arity] matches any call to [name] with [arity] arguments. *)

(** {2 Root classification}

    The engine indexes rules by the shape of their pattern root so an
    event is only offered to rules that could possibly match it.  The
    classification is conservative: [Root_call name] / [Root_tag t]
    promise the pattern matches nothing outside that bucket, and
    anything uncertain is [Root_any]. *)

type root_shape =
  | Root_call of string
      (** a call whose callee is literally this identifier *)
  | Root_tag of int  (** any expression with this head constructor *)
  | Root_any  (** wildcard at the root — a candidate for every event *)

val n_tags : int
(** number of distinct head-constructor tags (the [Root_tag] range) *)

val tag_call : int
(** the tag of [Ast.Call] — the bucket call events without an indexed
    callee name fall back to *)

val root_shapes : t -> root_shape list
(** the shapes a pattern can match at its root, one per [Alt] branch *)

val branches : t -> (Ast.expr * decl list) list
(** the [Alt] branches in match order, each with its wildcard
    declarations — the granularity the metal compiler's lowered rules
    work at *)

val of_branch : Ast.expr * decl list -> t
(** rebuild a single-branch pattern from a {!branches} entry *)

val match_expr : t -> Ast.expr -> Binding.t option
(** match at the root of an expression *)

val find_all : t -> Ast.expr -> (Ast.expr * Binding.t) list
(** all root-matches within an expression (including itself), in
    evaluation (post-) order *)
