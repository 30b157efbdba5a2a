(** Abstract syntax for Clite, the C subset FLASH-style protocol code is
    written in.

    The representation stays close to the source: FLASH "macros" such as
    [WAIT_FOR_DB_FULL(addr)] appear as ordinary calls, and assignments keep
    their left-hand side as a full expression so that patterns like
    [HANDLER_GLOBALS(header.nh.len) = LEN_NODATA] are directly matchable. *)

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
  f_end_loc : Loc.t;  (** location of the closing brace; used for LOC *)
  f_src_digest : Digest.t option;
      (** MD5 of the source text from [f_loc] through the closing brace,
          taken by the parser; [None] for a function built or rewritten
          in memory *)
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

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let mk_expr ?(loc = Loc.none) edesc = { edesc; eloc = loc; ety = None }
let mk_stmt ?(loc = Loc.none) sdesc = { sdesc; sloc = loc }

let int_lit ?loc n = mk_expr ?loc (Int_lit (Int64.of_int n, string_of_int n))
let ident ?loc name = mk_expr ?loc (Ident name)
let call ?loc name args = mk_expr ?loc (Call (ident ?loc name, args))
let with_body f body = { f with f_body = body; f_src_digest = None }

(* ------------------------------------------------------------------ *)
(* Traversal helpers                                                   *)
(* ------------------------------------------------------------------ *)

(** [iter_expr f e] applies [f] to [e] and every sub-expression of [e],
    outermost first. *)
let rec iter_expr f e =
  f e;
  match e.edesc with
  | Int_lit _ | Float_lit _ | Str_lit _ | Char_lit _ | Ident _
  | Sizeof_type _ ->
    ()
  | Call (callee, args) ->
    iter_expr f callee;
    List.iter (iter_expr f) args
  | Unop (_, a) | Cast (_, a) | Field (a, _) | Arrow (a, _) | Sizeof_expr a ->
    iter_expr f a
  | Binop (_, a, b)
  | Assign (a, b)
  | Op_assign (_, a, b)
  | Index (a, b)
  | Comma (a, b) ->
    iter_expr f a;
    iter_expr f b
  | Cond (a, b, c) ->
    iter_expr f a;
    iter_expr f b;
    iter_expr f c

(** [iter_stmt f s] applies [f] to [s] and every sub-statement, outermost
    first.  Expressions are not visited; use {!iter_stmt_exprs}. *)
let rec iter_stmt f s =
  f s;
  match s.sdesc with
  | Sexpr _ | Sdecl _ | Scase _ | Sdefault | Sreturn _ | Sbreak | Scontinue
  | Sgoto _ | Slabel _ | Snull ->
    ()
  | Sblock body -> List.iter (iter_stmt f) body
  | Sif (_, then_s, else_s) ->
    iter_stmt f then_s;
    Option.iter (iter_stmt f) else_s
  | Swhile (_, body) | Sdo (body, _) | Sfor (_, _, _, body) ->
    iter_stmt f body
  | Sswitch (_, body) -> iter_stmt f body

(** [iter_stmt_exprs f s] applies [f] to every top-level expression occurring
    in [s] or its sub-statements (conditions, initialisers, expression
    statements). *)
let iter_stmt_exprs f s =
  let on_stmt s =
    match s.sdesc with
    | Sexpr e | Scase e -> f e
    | Sdecl d -> Option.iter f d.v_init
    | Sif (c, _, _) | Swhile (c, _) | Sdo (_, c) | Sswitch (c, _) -> f c
    | Sfor (init, cond, step, _) ->
      (match init with
      | Some (Fi_expr e) -> f e
      | Some (Fi_decl d) -> Option.iter f d.v_init
      | None -> ());
      Option.iter f cond;
      Option.iter f step
    | Sreturn e -> Option.iter f e
    | Sblock _ | Sdefault | Sbreak | Scontinue | Sgoto _ | Slabel _ | Snull ->
      ()
  in
  iter_stmt on_stmt s

(** Structural equality on expressions, ignoring locations and inferred
    types.  Used by the pattern matcher for wildcard-consistency checks. *)
let rec equal_expr a b =
  match (a.edesc, b.edesc) with
  | Int_lit (x, _), Int_lit (y, _) -> Int64.equal x y
  | Float_lit (x, _), Float_lit (y, _) -> Float.equal x y
  | Str_lit x, Str_lit y -> String.equal x y
  | Char_lit x, Char_lit y -> Char.equal x y
  | Ident x, Ident y -> String.equal x y
  | Call (fa, aa), Call (fb, ab) ->
    equal_expr fa fb
    && List.length aa = List.length ab
    && List.for_all2 equal_expr aa ab
  | Unop (oa, a1), Unop (ob, b1) -> oa = ob && equal_expr a1 b1
  | Binop (oa, a1, a2), Binop (ob, b1, b2) ->
    oa = ob && equal_expr a1 b1 && equal_expr a2 b2
  | Assign (a1, a2), Assign (b1, b2) -> equal_expr a1 b1 && equal_expr a2 b2
  | Op_assign (oa, a1, a2), Op_assign (ob, b1, b2) ->
    oa = ob && equal_expr a1 b1 && equal_expr a2 b2
  | Cond (a1, a2, a3), Cond (b1, b2, b3) ->
    equal_expr a1 b1 && equal_expr a2 b2 && equal_expr a3 b3
  | Cast (ta, a1), Cast (tb, b1) -> Ctype.equal ta tb && equal_expr a1 b1
  | Field (a1, fa), Field (b1, fb) | Arrow (a1, fa), Arrow (b1, fb) ->
    String.equal fa fb && equal_expr a1 b1
  | Index (a1, a2), Index (b1, b2) -> equal_expr a1 b1 && equal_expr a2 b2
  | Comma (a1, a2), Comma (b1, b2) -> equal_expr a1 b1 && equal_expr a2 b2
  | Sizeof_expr a1, Sizeof_expr b1 -> equal_expr a1 b1
  | Sizeof_type ta, Sizeof_type tb -> Ctype.equal ta tb
  | _ -> false

let equal_var_decl a b =
  String.equal a.v_name b.v_name
  && Ctype.equal a.v_type b.v_type
  && Option.equal equal_expr a.v_init b.v_init
  && Bool.equal a.v_static b.v_static

(** Structural equality on statements, ignoring locations and inferred
    types — what a printer/parser round trip must preserve. *)
let rec equal_stmt a b =
  match (a.sdesc, b.sdesc) with
  | Sexpr x, Sexpr y | Scase x, Scase y -> equal_expr x y
  | Sdecl x, Sdecl y -> equal_var_decl x y
  | Sblock x, Sblock y ->
    List.length x = List.length y && List.for_all2 equal_stmt x y
  | Sif (ca, ta, ea), Sif (cb, tb, eb) ->
    equal_expr ca cb && equal_stmt ta tb && Option.equal equal_stmt ea eb
  | Swhile (ca, ba), Swhile (cb, bb) -> equal_expr ca cb && equal_stmt ba bb
  | Sdo (ba, ca), Sdo (bb, cb) -> equal_stmt ba bb && equal_expr ca cb
  | Sfor (ia, ca, sa, ba), Sfor (ib, cb, sb, bb) ->
    Option.equal equal_forinit ia ib
    && Option.equal equal_expr ca cb
    && Option.equal equal_expr sa sb
    && equal_stmt ba bb
  | Sswitch (ea, ba), Sswitch (eb, bb) -> equal_expr ea eb && equal_stmt ba bb
  | Sreturn ea, Sreturn eb -> Option.equal equal_expr ea eb
  | Sgoto x, Sgoto y | Slabel x, Slabel y -> String.equal x y
  | Sdefault, Sdefault | Sbreak, Sbreak | Scontinue, Scontinue | Snull, Snull
    ->
    true
  | _ -> false

and equal_forinit a b =
  match (a, b) with
  | Fi_expr x, Fi_expr y -> equal_expr x y
  | Fi_decl x, Fi_decl y -> equal_var_decl x y
  | _ -> false

let equal_func a b =
  String.equal a.f_name b.f_name
  && Ctype.equal a.f_ret b.f_ret
  && List.length a.f_params = List.length b.f_params
  && List.for_all2
       (fun (na, ta) (nb, tb) -> String.equal na nb && Ctype.equal ta tb)
       a.f_params b.f_params
  && Bool.equal a.f_static b.f_static
  && List.length a.f_body = List.length b.f_body
  && List.for_all2 equal_stmt a.f_body b.f_body

let equal_global a b =
  match (a, b) with
  | Gfunc x, Gfunc y -> equal_func x y
  | Gvar x, Gvar y -> equal_var_decl x y
  | Gtypedef (na, ta, _), Gtypedef (nb, tb, _) ->
    String.equal na nb && Ctype.equal ta tb
  | Gstruct (na, fa, _), Gstruct (nb, fb, _)
  | Gunion (na, fa, _), Gunion (nb, fb, _) ->
    String.equal na nb
    && List.length fa = List.length fb
    && List.for_all2
         (fun (n1, t1) (n2, t2) -> String.equal n1 n2 && Ctype.equal t1 t2)
         fa fb
  | Genum (na, ca, _), Genum (nb, cb, _) ->
    String.equal na nb
    && List.length ca = List.length cb
    && List.for_all2
         (fun (n1, v1) (n2, v2) ->
           String.equal n1 n2 && Option.equal Int.equal v1 v2)
         ca cb
  | Gfunc_decl (na, ra, pa, _), Gfunc_decl (nb, rb, pb, _) ->
    String.equal na nb && Ctype.equal ra rb
    && List.length pa = List.length pb
    && List.for_all2 Ctype.equal pa pb
  | _ -> false

let equal_tunit a b =
  List.length a.tu_globals = List.length b.tu_globals
  && List.for_all2 equal_global a.tu_globals b.tu_globals

(** Name of the function being called, when the callee is a plain
    identifier.  FLASH macros always take this form. *)
let callee_name e =
  match e.edesc with
  | Call ({ edesc = Ident name; _ }, _) -> Some name
  | _ -> None

(* One dense tag per [edesc] constructor: the root-dispatch key shared
   by the pattern index ([Pattern.tag_of_expr]) and the
   structure-of-arrays event buffers ([Prep]). *)
let n_expr_tags = 18
let tag_call = 5

let expr_tag e =
  match e.edesc with
  | Int_lit _ -> 0
  | Float_lit _ -> 1
  | Str_lit _ -> 2
  | Char_lit _ -> 3
  | Ident _ -> 4
  | Call _ -> 5
  | Unop _ -> 6
  | Binop _ -> 7
  | Assign _ -> 8
  | Op_assign _ -> 9
  | Cond _ -> 10
  | Cast _ -> 11
  | Field _ -> 12
  | Arrow _ -> 13
  | Index _ -> 14
  | Comma _ -> 15
  | Sizeof_expr _ -> 16
  | Sizeof_type _ -> 17

let functions tu =
  List.filter_map (function Gfunc f -> Some f | _ -> None) tu.tu_globals

let find_function tu name =
  List.find_opt (fun f -> String.equal f.f_name name) (functions tu)
