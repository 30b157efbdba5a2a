(** Abstract syntax for Clite, the C subset FLASH-style protocol code is
    written in.

    The representation stays close to the source: FLASH "macros" such as
    [WAIT_FOR_DB_FULL(addr)] appear as ordinary calls, and assignments
    keep their left-hand side as a full expression so that patterns like
    [HANDLER_GLOBALS(header.nh.len) = LEN_NODATA] are directly
    matchable. *)

type unop =
  | Neg
  | Not
  | Bnot
  | Preinc
  | Predec
  | Postinc
  | Postdec
  | Deref
  | Addrof

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Shl
  | Shr
  | Lt
  | Gt
  | Le
  | Ge
  | Eq
  | Ne
  | Band
  | Bxor
  | Bor
  | Land
  | Lor

type expr = {
  edesc : edesc;
  eloc : Loc.t;
  mutable ety : Ctype.t option;  (** filled in by {!Typecheck} *)
}

and edesc =
  | Int_lit of int64 * string  (** value and original spelling *)
  | Float_lit of float * string
  | Str_lit of string
  | Char_lit of char
  | Ident of string
  | Call of expr * expr list
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Assign of expr * expr
  | Op_assign of binop * expr * expr  (** [+=], [-=], ... *)
  | Cond of expr * expr * expr
  | Cast of Ctype.t * expr
  | Field of expr * string  (** [e.f] *)
  | Arrow of expr * string  (** [e->f] *)
  | Index of expr * expr
  | Comma of expr * expr
  | Sizeof_expr of expr
  | Sizeof_type of Ctype.t

type var_decl = {
  v_name : string;
  v_type : Ctype.t;
  v_init : expr option;
  v_loc : Loc.t;
  v_static : bool;
}

type stmt = { sdesc : sdesc; sloc : Loc.t }

and sdesc =
  | Sexpr of expr
  | Sdecl of var_decl
  | Sblock of stmt list
  | Sif of expr * stmt * stmt option
  | Swhile of expr * stmt
  | Sdo of stmt * expr
  | Sfor of forinit option * expr option * expr option * stmt
  | Sswitch of expr * stmt
  | Scase of expr
  | Sdefault
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sgoto of string
  | Slabel of string
  | Snull

and forinit = Fi_expr of expr | Fi_decl of var_decl

type func = {
  f_name : string;
  f_ret : Ctype.t;
  f_params : (string * Ctype.t) list;
  f_body : stmt list;
  f_loc : Loc.t;
  f_static : bool;
  f_end_loc : Loc.t;  (** location of the closing brace *)
  f_src_digest : Digest.t option;
      (** MD5 of the source text from [f_loc] through the closing brace,
          taken by the parser.  [None] for a function built or rewritten
          in memory: a copy that changes the body must reset it, since
          {!Mcd} keys cached results on it. *)
}

type global =
  | Gfunc of func
  | Gvar of var_decl
  | Gtypedef of string * Ctype.t * Loc.t
  | Gstruct of string * (string * Ctype.t) list * Loc.t
  | Gunion of string * (string * Ctype.t) list * Loc.t
  | Genum of string * (string * int option) list * Loc.t
  | Gfunc_decl of string * Ctype.t * Ctype.t list * Loc.t
      (** prototype: name, return type, parameter types *)

type tunit = { tu_file : string; tu_globals : global list }

(** {2 Constructors} *)

val mk_expr : ?loc:Loc.t -> edesc -> expr
val mk_stmt : ?loc:Loc.t -> sdesc -> stmt
val int_lit : ?loc:Loc.t -> int -> expr
val ident : ?loc:Loc.t -> string -> expr
val call : ?loc:Loc.t -> string -> expr list -> expr

val with_body : func -> stmt list -> func
(** the function with its body replaced; the copy has no source digest,
    so it never shares a cached result with the original *)

(** {2 Traversal} *)

val iter_expr : (expr -> unit) -> expr -> unit
(** [f] applied to the expression and every sub-expression, outermost
    first *)

val iter_stmt : (stmt -> unit) -> stmt -> unit
(** [f] applied to the statement and every sub-statement, outermost first;
    expressions are not visited *)

val iter_stmt_exprs : (expr -> unit) -> stmt -> unit
(** [f] applied to every top-level expression occurring in the statement
    or its sub-statements (conditions, initialisers, expression
    statements) *)

(** {2 Queries} *)

val equal_expr : expr -> expr -> bool
(** structural, ignoring locations and inferred types — the pattern
    matcher's wildcard-consistency notion *)

val equal_tunit : tunit -> tunit -> bool
(** structural equality of whole units, ignoring file names, locations
    and inferred types — what a printer/parser round trip must
    preserve *)

val callee_name : expr -> string option
(** the called function's name when the callee is a plain identifier
    (FLASH macros always are) *)

val n_expr_tags : int
(** number of distinct {!expr_tag} values *)

val tag_call : int
(** the tag {!expr_tag} assigns to [Call] expressions *)

val expr_tag : expr -> int
(** dense tag of the root constructor, in [0, n_expr_tags) — the
    root-dispatch key shared by the pattern index and the
    structure-of-arrays event buffers *)

val functions : tunit -> func list
val find_function : tunit -> string -> func option
