(** Source-code patterns, metal style.

    A pattern is written in the base language (Clite) with some identifiers
    declared as typed wildcards, mirroring metal's

    {v
      decl { scalar } addr, buf;
      ...
      { WAIT_FOR_DB_FULL(addr); }
    v}

    which here reads

    {[
      let addr = ("addr", Pattern.Scalar) in
      Pattern.expr ~decls:[ addr ] "WAIT_FOR_DB_FULL(addr)"
    ]}

    Patterns match abstract-syntax subtrees structurally; wildcards match
    any expression whose inferred type satisfies the wildcard's kind, and
    repeated wildcards must match structurally equal expressions.
    Disjunction ([|] in metal) is {!alt}; named patterns ([pat x = ...])
    are plain OCaml [let]s. *)

type wildcard_kind =
  | Any  (** matches any expression *)
  | Scalar  (** integers and pointers — metal's [scalar] *)
  | Unsigned_int  (** metal's [unsigned] *)
  | Floating  (** float/double-typed expressions *)
  | Constant  (** literal constants only *)

type decl = string * wildcard_kind

type t =
  | Alt of t list  (** ordered disjunction *)
  | Expr of Ast.expr * decl list
      (** pattern expression, with the wildcards declared for it *)

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(** [expr_located ~decls src] parses [src] as a Clite expression and
    treats each identifier named in [decls] as a wildcard.  On failure
    the error carries the (1-based) line and column of the offending
    token *within the snippet*, so callers embedding patterns in a
    larger source (the metal front ends) can rebase it onto the file. *)
let expr_located ?(decls : decl list = []) (src : string) :
    (t, string * int * int) result =
  match Parser.parse_expr_string ~file:"<pattern>" src with
  | Ok e -> Ok (Expr (e, decls))
  | Error d ->
    let loc = d.Diag.loc in
    Error
      ( Printf.sprintf "bad pattern %S: %s" src d.Diag.message,
        max 1 loc.Loc.line,
        max 1 loc.Loc.col )

(** [expr ~decls src] parses [src] as a Clite expression and treats each
    identifier named in [decls] as a wildcard.
    @raise Parse_error if [src] is not a valid expression. *)
let expr ?(decls : decl list = []) (src : string) : t =
  match expr_located ~decls src with
  | Ok t -> t
  | Error (msg, _, _) -> raise (Parse_error msg)

(** Ordered disjunction of patterns — metal's [p1 | p2]. *)
let alt (ps : t list) : t =
  Alt
    (List.concat_map (function Alt inner -> inner | p -> [ p ]) ps)

(** [call name ~args] matches a call to [name] with exactly [args]
    wildcards, each matching anything.  Convenience for the common
    macro-call shape. *)
let call name ~arity : t =
  let args =
    List.init arity (fun i -> Printf.sprintf "_w%d" i)
  in
  let src = Printf.sprintf "%s(%s)" name (String.concat ", " args) in
  expr ~decls:(List.map (fun a -> (a, Any)) args) src

(* ------------------------------------------------------------------ *)
(* Root classification                                                 *)
(* ------------------------------------------------------------------ *)

(* The engine dispatches each event through a hashtable of candidate
   rules instead of linearly scanning every rule per sub-expression;
   this classification is what the index is keyed on.  It must be
   conservative: a pattern may only be classified [Root_call name] /
   [Root_tag t] if it can match *no* expression outside that bucket. *)

type root_shape =
  | Root_call of string
      (** a call whose callee is literally this identifier *)
  | Root_tag of int  (** any expression with this head constructor *)
  | Root_any  (** wildcard at the root — a candidate for every event *)

(* the tag space is defined once in [Ast] so the cfg-level SoA event
   buffers and this index agree by construction *)
let n_tags = Ast.n_expr_tags
let tag_of_expr (e : Ast.expr) : int = Ast.expr_tag e
let tag_call = Ast.tag_call

let root_shape_of (p : Ast.expr) (decls : decl list) : root_shape =
  match p.Ast.edesc with
  | Ast.Ident name when List.mem_assoc name decls -> Root_any
  | Ast.Call ({ Ast.edesc = Ast.Ident f; _ }, _)
    when not (List.mem_assoc f decls) ->
    Root_call f
  | _ -> Root_tag (tag_of_expr p)

(** The root shapes a pattern can match — one entry per [Alt] branch
    (duplicates possible, harmless).  An event whose own root key is in
    none of them cannot match the pattern. *)
let root_shapes (t : t) : root_shape list =
  let rec go acc = function
    | Expr (p, decls) -> root_shape_of p decls :: acc
    | Alt ps -> List.fold_left go acc ps
  in
  go [] t

(* ------------------------------------------------------------------ *)
(* Branch introspection (the metal compiler's view)                    *)
(* ------------------------------------------------------------------ *)

(** The [Alt] branches of a pattern, in match order — the granularity the
    metal compiler's lowered rules work at. *)
let branches (t : t) : (Ast.expr * decl list) list =
  let rec go acc = function
    | Expr (p, decls) -> (p, decls) :: acc
    | Alt ps -> List.fold_left go acc ps
  in
  List.rev (go [] t)

(** Rebuild a single-branch pattern from a {!branches} entry. *)
let of_branch ((p, decls) : Ast.expr * decl list) : t = Expr (p, decls)

let kind_admits (kind : wildcard_kind) (e : Ast.expr) : bool =
  match kind with
  | Any -> true
  | Scalar -> (
    match e.Ast.ety with
    | Some t -> Ctype.is_scalar t
    | None -> true (* unannotated code: be permissive, as xg++ was *))
  | Unsigned_int -> (
    match e.Ast.ety with
    | Some t -> Ctype.is_unsigned t || Ctype.is_integer t
    | None -> true)
  | Floating -> (
    match e.Ast.ety with Some t -> Ctype.is_floating t | None -> false)
  | Constant -> (
    match e.Ast.edesc with
    | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Char_lit _ | Ast.Str_lit _ ->
      true
    | _ -> false)

(* Match pattern expression [p] against concrete expression [e]. *)
let rec match_e (decls : decl list) (p : Ast.expr) (e : Ast.expr)
    (b : Binding.t) : Binding.t option =
  match p.Ast.edesc with
  | Ast.Ident name when List.mem_assoc name decls ->
    let kind = List.assoc name decls in
    if kind_admits kind e then Binding.add b name e else None
  | _ -> (
    match (p.Ast.edesc, e.Ast.edesc) with
    | Ast.Int_lit (a, _), Ast.Int_lit (c, _) ->
      if Int64.equal a c then Some b else None
    | Ast.Float_lit (a, _), Ast.Float_lit (c, _) ->
      if Float.equal a c then Some b else None
    | Ast.Str_lit a, Ast.Str_lit c -> if String.equal a c then Some b else None
    | Ast.Char_lit a, Ast.Char_lit c -> if Char.equal a c then Some b else None
    (* pattern and event identifiers both come out of the lexer
       canonicalized through [Symtab], so pointer equality decides the
       common case; the [String.equal] fallback keeps synthesized ASTs
       (fuzz generators, fixers) correct *)
    | Ast.Ident a, Ast.Ident c ->
      if a == c || String.equal a c then Some b else None
    | Ast.Call (pf, pargs), Ast.Call (ef, eargs) ->
      if List.length pargs <> List.length eargs then None
      else
        Option.bind (match_e decls pf ef b) (fun b ->
            match_list decls pargs eargs b)
    | Ast.Unop (po, pa), Ast.Unop (eo, ea) ->
      if po = eo then match_e decls pa ea b else None
    | Ast.Binop (po, pa, pb), Ast.Binop (eo, ea, eb) ->
      if po = eo then
        Option.bind (match_e decls pa ea b) (fun b -> match_e decls pb eb b)
      else None
    | Ast.Assign (pl, pr), Ast.Assign (el, er) ->
      Option.bind (match_e decls pl el b) (fun b -> match_e decls pr er b)
    | Ast.Op_assign (po, pl, pr), Ast.Op_assign (eo, el, er) ->
      if po = eo then
        Option.bind (match_e decls pl el b) (fun b -> match_e decls pr er b)
      else None
    | Ast.Cond (pc, pt, pf), Ast.Cond (ec, et, ef) ->
      Option.bind (match_e decls pc ec b) (fun b ->
          Option.bind (match_e decls pt et b) (fun b -> match_e decls pf ef b))
    | Ast.Cast (pt, pa), Ast.Cast (et, ea) ->
      if Ctype.equal pt et then match_e decls pa ea b else None
    | Ast.Field (pa, pf), Ast.Field (ea, ef)
    | Ast.Arrow (pa, pf), Ast.Arrow (ea, ef) ->
      if pf == ef || String.equal pf ef then match_e decls pa ea b else None
    | Ast.Index (pa, pi), Ast.Index (ea, ei) ->
      Option.bind (match_e decls pa ea b) (fun b -> match_e decls pi ei b)
    | Ast.Comma (pa, pb), Ast.Comma (ea, eb) ->
      Option.bind (match_e decls pa ea b) (fun b -> match_e decls pb eb b)
    | Ast.Sizeof_expr pa, Ast.Sizeof_expr ea -> match_e decls pa ea b
    | Ast.Sizeof_type pt, Ast.Sizeof_type et ->
      if Ctype.equal pt et then Some b else None
    | _ -> None)

and match_list decls ps es b =
  match (ps, es) with
  | [], [] -> Some b
  | p :: ps, e :: es ->
    Option.bind (match_e decls p e b) (fun b -> match_list decls ps es b)
  | _ -> None

(** Match [t] against expression [e] at its root. *)
let rec match_expr (t : t) (e : Ast.expr) : Binding.t option =
  match t with
  | Expr (p, decls) -> match_e decls p e Binding.empty
  | Alt ps ->
    List.fold_left
      (fun acc p -> match acc with Some _ -> acc | None -> match_expr p e)
      None ps

(** All root-matches of [t] within [e] (including [e] itself), with the
    matched sub-expression, in evaluation (post-) order. *)
let find_all (t : t) (e : Ast.expr) : (Ast.expr * Binding.t) list =
  let hits = ref [] in
  let rec post e =
    (match e.Ast.edesc with
    | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
    | Ast.Ident _ | Ast.Sizeof_type _ ->
      ()
    | Ast.Call (f, args) ->
      post f;
      List.iter post args
    | Ast.Unop (_, a) | Ast.Cast (_, a) | Ast.Field (a, _) | Ast.Arrow (a, _)
    | Ast.Sizeof_expr a ->
      post a
    | Ast.Binop (_, a, b)
    | Ast.Assign (a, b)
    | Ast.Op_assign (_, a, b)
    | Ast.Index (a, b)
    | Ast.Comma (a, b) ->
      post a;
      post b
    | Ast.Cond (a, b, c) ->
      post a;
      post b;
      post c);
    match match_expr t e with
    | Some b -> hits := (e, b) :: !hits
    | None -> ()
  in
  post e;
  List.rev !hits
