(** Lightweight type annotation for Clite.

    Resolves typedefs, records struct/union layouts and enum constants, and
    fills in the [ety] field of every expression.  This is not a conformance
    checker: unknown identifiers get type [Int] (protocol code is full of
    macro-constants declared elsewhere), and implicit conversions are
    accepted silently.  What matters for the checkers is that *float-typed*
    expressions and *unsigned/scalar* classifications are computed reliably,
    which only needs declarations actually present in the unit. *)

type env = {
  typedefs : (string, Ctype.t) Hashtbl.t;
  structs : (string, (string * Ctype.t) list) Hashtbl.t;
  unions : (string, (string * Ctype.t) list) Hashtbl.t;
  enum_consts : (string, unit) Hashtbl.t;
  globals : (string, Ctype.t) Hashtbl.t;
  funcs : (string, Ctype.t) Hashtbl.t;  (** name -> return type *)
  mutable locals : (string * Ctype.t) list list;  (** scope stack *)
}

let create_env () =
  {
    typedefs = Hashtbl.create 16;
    structs = Hashtbl.create 16;
    unions = Hashtbl.create 16;
    enum_consts = Hashtbl.create 16;
    globals = Hashtbl.create 64;
    funcs = Hashtbl.create 64;
    locals = [];
  }

let rec resolve env (ty : Ctype.t) : Ctype.t =
  match ty with
  | Ctype.Named name -> (
    match Hashtbl.find_opt env.typedefs name with
    | Some t -> resolve env t
    | None -> Ctype.Int)
  | Ctype.Ptr t -> Ctype.Ptr (resolve env t)
  | Ctype.Array (t, n) -> Ctype.Array (resolve env t, n)
  | t -> t

let push_scope env = env.locals <- [] :: env.locals

let pop_scope env =
  match env.locals with [] -> () | _ :: rest -> env.locals <- rest

let bind_local env name ty =
  match env.locals with
  | scope :: rest -> env.locals <- ((name, ty) :: scope) :: rest
  | [] -> env.locals <- [ [ (name, ty) ] ]

let lookup_var env name : Ctype.t option =
  let rec in_scopes = function
    | [] -> None
    | scope :: rest -> (
      match List.assoc_opt name scope with
      | Some t -> Some t
      | None -> in_scopes rest)
  in
  match in_scopes env.locals with
  | Some t -> Some t
  | None -> Hashtbl.find_opt env.globals name

let field_type env ty field : Ctype.t =
  match resolve env ty with
  | Ctype.Struct tag | Ctype.Ptr (Ctype.Struct tag) -> (
    match Hashtbl.find_opt env.structs tag with
    | Some fields -> (
      match List.assoc_opt field fields with
      | Some t -> resolve env t
      | None -> Ctype.Int)
    | None -> Ctype.Int)
  | Ctype.Union tag | Ctype.Ptr (Ctype.Union tag) -> (
    match Hashtbl.find_opt env.unions tag with
    | Some fields -> (
      match List.assoc_opt field fields with
      | Some t -> resolve env t
      | None -> Ctype.Int)
    | None -> Ctype.Int)
  | _ -> Ctype.Int

(* Annotate [e] and all sub-expressions; returns the type of [e]. *)
let rec infer env (e : Ast.expr) : Ctype.t =
  let ty =
    match e.Ast.edesc with
    | Ast.Int_lit (_, s) ->
      if String.contains s 'u' || String.contains s 'U' then Ctype.Uint
      else Ctype.Int
    | Ast.Float_lit (_, s) ->
      if
        String.length s > 0
        && (s.[String.length s - 1] = 'f' || s.[String.length s - 1] = 'F')
      then Ctype.Float
      else Ctype.Double
    | Ast.Str_lit _ -> Ctype.Ptr Ctype.Char
    | Ast.Char_lit _ -> Ctype.Char
    | Ast.Ident name -> (
      match lookup_var env name with
      | Some t -> resolve env t
      | None ->
        if Hashtbl.mem env.enum_consts name then Ctype.Int else Ctype.Int)
    | Ast.Call (callee, args) -> (
      (match callee.Ast.edesc with
      | Ast.Ident _ -> callee.Ast.ety <- Some (Ctype.Func (Ctype.Int, []))
      | _ -> ignore (infer env callee));
      List.iter (fun a -> ignore (infer env a)) args;
      match callee.Ast.edesc with
      | Ast.Ident name -> (
        match Hashtbl.find_opt env.funcs name with
        | Some ret -> resolve env ret
        | None -> Ctype.Int)
      | _ -> Ctype.Int)
    | Ast.Unop (op, a) -> (
      let ta = infer env a in
      match op with
      | Ast.Not -> Ctype.Int
      | Ast.Deref -> (
        match ta with
        | Ctype.Ptr t | Ctype.Array (t, _) -> t
        | _ -> Ctype.Int)
      | Ast.Addrof -> Ctype.Ptr ta
      | Ast.Neg | Ast.Bnot | Ast.Preinc | Ast.Predec | Ast.Postinc
      | Ast.Postdec ->
        ta)
    | Ast.Binop (op, a, b) -> (
      let ta = infer env a in
      let tb = infer env b in
      match op with
      | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne | Ast.Land
      | Ast.Lor ->
        Ctype.Int
      | Ast.Add | Ast.Sub
        when Ctype.is_pointer ta && not (Ctype.is_pointer tb) ->
        ta
      | Ast.Sub when Ctype.is_pointer ta && Ctype.is_pointer tb -> Ctype.Int
      | _ -> Ctype.join ta tb)
    | Ast.Assign (l, r) ->
      let tl = infer env l in
      ignore (infer env r);
      tl
    | Ast.Op_assign (_, l, r) ->
      let tl = infer env l in
      ignore (infer env r);
      tl
    | Ast.Cond (c, t, f) ->
      ignore (infer env c);
      let tt = infer env t in
      let tf = infer env f in
      Ctype.join tt tf
    | Ast.Cast (ty, a) ->
      ignore (infer env a);
      resolve env ty
    | Ast.Field (a, f) ->
      let ta = infer env a in
      field_type env ta f
    | Ast.Arrow (a, f) ->
      let ta = infer env a in
      field_type env ta f
    | Ast.Index (a, i) -> (
      let ta = infer env a in
      ignore (infer env i);
      match ta with
      | Ctype.Ptr t | Ctype.Array (t, _) -> t
      | _ -> Ctype.Int)
    | Ast.Comma (a, b) ->
      ignore (infer env a);
      infer env b
    | Ast.Sizeof_expr a ->
      ignore (infer env a);
      Ctype.Uint
    | Ast.Sizeof_type _ -> Ctype.Uint
  in
  e.Ast.ety <- Some ty;
  ty

let rec check_stmt env (s : Ast.stmt) : unit =
  match s.Ast.sdesc with
  | Ast.Sexpr e -> ignore (infer env e)
  | Ast.Sdecl d ->
    Option.iter (fun e -> ignore (infer env e)) d.Ast.v_init;
    bind_local env d.Ast.v_name (resolve env d.Ast.v_type)
  | Ast.Sblock body ->
    push_scope env;
    List.iter (check_stmt env) body;
    pop_scope env
  | Ast.Sif (c, t, f) ->
    ignore (infer env c);
    check_stmt env t;
    Option.iter (check_stmt env) f
  | Ast.Swhile (c, body) ->
    ignore (infer env c);
    check_stmt env body
  | Ast.Sdo (body, c) ->
    check_stmt env body;
    ignore (infer env c)
  | Ast.Sfor (init, cond, step, body) ->
    push_scope env;
    (match init with
    | Some (Ast.Fi_expr e) -> ignore (infer env e)
    | Some (Ast.Fi_decl d) ->
      Option.iter (fun e -> ignore (infer env e)) d.Ast.v_init;
      bind_local env d.Ast.v_name (resolve env d.Ast.v_type)
    | None -> ());
    Option.iter (fun e -> ignore (infer env e)) cond;
    Option.iter (fun e -> ignore (infer env e)) step;
    check_stmt env body;
    pop_scope env
  | Ast.Sswitch (e, body) ->
    ignore (infer env e);
    check_stmt env body
  | Ast.Scase e -> ignore (infer env e)
  | Ast.Sreturn e -> Option.iter (fun e -> ignore (infer env e)) e
  | Ast.Sdefault | Ast.Sbreak | Ast.Scontinue | Ast.Sgoto _ | Ast.Slabel _
  | Ast.Snull ->
    ()

let load_globals env (tu : Ast.tunit) =
  List.iter
    (fun g ->
      match g with
      | Ast.Gtypedef (name, ty, _) -> Hashtbl.replace env.typedefs name ty
      | Ast.Gstruct (tag, fields, _) -> Hashtbl.replace env.structs tag fields
      | Ast.Gunion (tag, fields, _) -> Hashtbl.replace env.unions tag fields
      | Ast.Genum (_, items, _) ->
        List.iter
          (fun (name, _) ->
            Hashtbl.replace env.enum_consts name ();
            Hashtbl.replace env.globals name Ctype.Int)
          items
      | Ast.Gvar d -> Hashtbl.replace env.globals d.Ast.v_name d.Ast.v_type
      | Ast.Gfunc f -> Hashtbl.replace env.funcs f.Ast.f_name f.Ast.f_ret
      | Ast.Gfunc_decl (name, ret, _, _) ->
        Hashtbl.replace env.funcs name ret)
    tu.Ast.tu_globals

let check_func env (f : Ast.func) =
  push_scope env;
  List.iter
    (fun (name, ty) -> if name <> "" then bind_local env name (resolve env ty))
    f.Ast.f_params;
  List.iter (check_stmt env) f.Ast.f_body;
  pop_scope env

(** Annotate several translation units as one program, in place: all
    globals are loaded first so cross-unit references resolve. *)
let annotate_program (tus : Ast.tunit list) : unit =
  Mcobs.with_span "cfront.typecheck"
    ~args:[ ("units", string_of_int (List.length tus)) ]
    (fun () ->
      let env = create_env () in
      List.iter (load_globals env) tus;
      List.iter
        (fun tu ->
          List.iter
            (function Ast.Gfunc f -> check_func env f | _ -> ())
            tu.Ast.tu_globals)
        tus)
