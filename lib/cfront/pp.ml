(** Pretty-printer for Clite.

    Emits compilable C text.  The corpus generator uses this to write the
    synthetic protocol sources to disk, and the test suite uses it for
    parse/print round-trip properties.  Parenthesisation is conservative:
    every non-atomic sub-expression in an operator position is wrapped, so
    the printed form always re-parses to a structurally equal AST. *)

let unop_prefix = function
  | Ast.Neg -> "-"
  | Ast.Not -> "!"
  | Ast.Bnot -> "~"
  | Ast.Preinc -> "++"
  | Ast.Predec -> "--"
  | Ast.Deref -> "*"
  | Ast.Addrof -> "&"
  | Ast.Postinc | Ast.Postdec -> assert false

let binop_str = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Shl -> "<<"
  | Ast.Shr -> ">>"
  | Ast.Lt -> "<"
  | Ast.Gt -> ">"
  | Ast.Le -> "<="
  | Ast.Ge -> ">="
  | Ast.Eq -> "=="
  | Ast.Ne -> "!="
  | Ast.Band -> "&"
  | Ast.Bxor -> "^"
  | Ast.Bor -> "|"
  | Ast.Land -> "&&"
  | Ast.Lor -> "||"

let is_atom e =
  match e.Ast.edesc with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
  | Ast.Ident _ | Ast.Call _ | Ast.Field _ | Ast.Arrow _ | Ast.Index _ ->
    true
  | _ -> false

(* Types are printed in two parts so that declarators come out right:
   [decl_type ppf ty name] prints e.g. "int *x[4]". *)
let rec base_type ppf (ty : Ctype.t) =
  match ty with
  | Ctype.Ptr t -> base_type ppf t
  | Ctype.Array (t, _) -> base_type ppf t
  | t -> Ctype.pp ppf t

let rec decl_suffix ppf (ty : Ctype.t) =
  match ty with
  | Ctype.Array (t, Some n) ->
    Format.fprintf ppf "[%d]" n;
    decl_suffix ppf t
  | Ctype.Array (t, None) ->
    Format.fprintf ppf "[]";
    decl_suffix ppf t
  | _ -> ()

let rec stars ppf (ty : Ctype.t) =
  match ty with
  | Ctype.Ptr t ->
    stars ppf t;
    Format.pp_print_string ppf "*"
  | _ -> ()

(* Clite declarators are simple — stars, then the name, then array
   suffixes — matching what the parser accepts: [Array (Ptr t, n)] prints
   as "t *x[n]". *)
let rec strip_arrays = function
  | Ctype.Array (t, _) -> strip_arrays t
  | t -> t

let decl_type ppf ty name =
  Format.fprintf ppf "%a %a%s%a" base_type ty stars (strip_arrays ty) name
    decl_suffix ty

let rec pp_expr ppf e =
  let atom ppf e =
    if is_atom e then pp_expr ppf e else Format.fprintf ppf "(%a)" pp_expr e
  in
  match e.Ast.edesc with
  | Ast.Int_lit (_, s) -> Format.pp_print_string ppf s
  | Ast.Float_lit (_, s) -> Format.pp_print_string ppf s
  | Ast.Str_lit s ->
    (* C escapes, restricted to the forms the Clite lexer understands
       (backslash n t r 0, backslash-backslash, escaped quotes): OCaml's
       %S would emit decimal escapes that re-lex as a digit followed by
       literal digits *)
    Format.pp_print_char ppf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Format.pp_print_string ppf "\\\""
        | '\\' -> Format.pp_print_string ppf "\\\\"
        | '\n' -> Format.pp_print_string ppf "\\n"
        | '\t' -> Format.pp_print_string ppf "\\t"
        | '\r' -> Format.pp_print_string ppf "\\r"
        | '\000' -> Format.pp_print_string ppf "\\0"
        | c -> Format.pp_print_char ppf c)
      s;
    Format.pp_print_char ppf '"'
  | Ast.Char_lit '\n' -> Format.pp_print_string ppf "'\\n'"
  | Ast.Char_lit '\t' -> Format.pp_print_string ppf "'\\t'"
  | Ast.Char_lit '\r' -> Format.pp_print_string ppf "'\\r'"
  | Ast.Char_lit '\000' -> Format.pp_print_string ppf "'\\0'"
  | Ast.Char_lit '\'' -> Format.pp_print_string ppf "'\\''"
  | Ast.Char_lit '\\' -> Format.pp_print_string ppf "'\\\\'"
  | Ast.Char_lit c -> Format.fprintf ppf "'%c'" c
  | Ast.Ident s -> Format.pp_print_string ppf s
  | Ast.Call (f, args) ->
    Format.fprintf ppf "%a(%a)" atom f
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_expr)
      args
  | Ast.Unop (Ast.Postinc, a) -> Format.fprintf ppf "%a++" atom a
  | Ast.Unop (Ast.Postdec, a) -> Format.fprintf ppf "%a--" atom a
  | Ast.Unop (op, a) -> Format.fprintf ppf "%s%a" (unop_prefix op) atom a
  | Ast.Binop (op, a, b) ->
    Format.fprintf ppf "%a %s %a" atom a (binop_str op) atom b
  | Ast.Assign (l, r) -> Format.fprintf ppf "%a = %a" atom l assign_rhs r
  | Ast.Op_assign (op, l, r) ->
    Format.fprintf ppf "%a %s= %a" atom l (binop_str op) assign_rhs r
  | Ast.Cond (c, t, f) ->
    Format.fprintf ppf "%a ? %a : %a" atom c atom t atom f
  | Ast.Cast (ty, a) -> Format.fprintf ppf "(%a)%a" Ctype.pp ty atom a
  | Ast.Field (a, f) -> Format.fprintf ppf "%a.%s" atom a f
  | Ast.Arrow (a, f) -> Format.fprintf ppf "%a->%s" atom a f
  | Ast.Index (a, i) -> Format.fprintf ppf "%a[%a]" atom a pp_expr i
  | Ast.Comma (a, b) -> Format.fprintf ppf "%a, %a" pp_expr a pp_expr b
  | Ast.Sizeof_expr a -> Format.fprintf ppf "sizeof(%a)" pp_expr a
  | Ast.Sizeof_type t -> Format.fprintf ppf "sizeof(%a)" Ctype.pp t

(* assignments right-associate; avoid wrapping chained assigns in parens *)
and assign_rhs ppf e =
  match e.Ast.edesc with
  | Ast.Assign _ | Ast.Op_assign _ -> pp_expr ppf e
  | _ -> if is_atom e then pp_expr ppf e else Format.fprintf ppf "(%a)" pp_expr e

let pp_var_decl ppf (d : Ast.var_decl) =
  if d.v_static then Format.pp_print_string ppf "static ";
  decl_type ppf d.v_type d.v_name;
  match d.v_init with
  | Some e -> Format.fprintf ppf " = %a" pp_expr e
  | None -> ()

let rec pp_stmt ?(indent = 0) ppf s =
  let pad = String.make indent ' ' in
  let sub = indent + 2 in
  match s.Ast.sdesc with
  | Ast.Sexpr e -> Format.fprintf ppf "%s%a;" pad pp_expr e
  | Ast.Sdecl d -> Format.fprintf ppf "%s%a;" pad pp_var_decl d
  | Ast.Sblock body ->
    Format.fprintf ppf "%s{" pad;
    List.iter (fun s -> Format.fprintf ppf "@\n%a" (pp_stmt ~indent:sub) s)
      body;
    Format.fprintf ppf "@\n%s}" pad
  | Ast.Sif (c, t, f) -> (
    Format.fprintf ppf "%sif (%a)@\n%a" pad pp_expr c (pp_stmt ~indent:sub)
      (as_block t);
    match f with
    | Some e ->
      Format.fprintf ppf "@\n%selse@\n%a" pad (pp_stmt ~indent:sub)
        (as_block e)
    | None -> ())
  | Ast.Swhile (c, body) ->
    Format.fprintf ppf "%swhile (%a)@\n%a" pad pp_expr c (pp_stmt ~indent:sub)
      (as_block body)
  | Ast.Sdo (body, c) ->
    Format.fprintf ppf "%sdo@\n%a" pad (pp_stmt ~indent:sub) (as_block body);
    Format.fprintf ppf "@\n%swhile (%a);" pad pp_expr c
  | Ast.Sfor (init, cond, step, body) ->
    let pp_init ppf = function
      | Some (Ast.Fi_expr e) -> pp_expr ppf e
      | Some (Ast.Fi_decl d) -> pp_var_decl ppf d
      | None -> ()
    in
    let pp_opt ppf = function Some e -> pp_expr ppf e | None -> () in
    Format.fprintf ppf "%sfor (%a; %a; %a)@\n%a" pad pp_init init pp_opt cond
      pp_opt step (pp_stmt ~indent:sub) (as_block body)
  | Ast.Sswitch (e, body) ->
    Format.fprintf ppf "%sswitch (%a)@\n%a" pad pp_expr e
      (pp_stmt ~indent:sub) (as_block body)
  | Ast.Scase e -> Format.fprintf ppf "%scase %a:" pad pp_expr e
  | Ast.Sdefault -> Format.fprintf ppf "%sdefault:" pad
  | Ast.Sreturn (Some e) -> Format.fprintf ppf "%sreturn %a;" pad pp_expr e
  | Ast.Sreturn None -> Format.fprintf ppf "%sreturn;" pad
  | Ast.Sbreak -> Format.fprintf ppf "%sbreak;" pad
  | Ast.Scontinue -> Format.fprintf ppf "%scontinue;" pad
  | Ast.Sgoto l -> Format.fprintf ppf "%sgoto %s;" pad l
  | Ast.Slabel l -> Format.fprintf ppf "%s%s:;" pad l
  | Ast.Snull -> Format.fprintf ppf "%s;" pad

(* Wrap non-block statements in braces so dangling-else never changes
   meaning on round trips. *)
and as_block s =
  match s.Ast.sdesc with
  | Ast.Sblock _ -> s
  | _ -> Ast.mk_stmt ~loc:s.Ast.sloc (Ast.Sblock [ s ])

let pp_func ppf (f : Ast.func) =
  if f.f_static then Format.pp_print_string ppf "static ";
  let pp_param ppf (name, ty) =
    if name = "" then Ctype.pp ppf ty else decl_type ppf ty name
  in
  Format.fprintf ppf "%a %a%s(%a)@\n{" base_type f.f_ret stars f.f_ret
    f.f_name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_param)
    f.f_params;
  List.iter
    (fun s -> Format.fprintf ppf "@\n%a" (pp_stmt ~indent:2) s)
    f.f_body;
  Format.fprintf ppf "@\n}"

let pp_global ppf = function
  | Ast.Gfunc f -> pp_func ppf f
  | Ast.Gvar d -> Format.fprintf ppf "%a;" pp_var_decl d
  | Ast.Gtypedef (name, ty, _) ->
    Format.fprintf ppf "typedef %a %a%s%a;" base_type ty stars
      (strip_arrays ty) name decl_suffix ty
  | (Ast.Gstruct (tag, fields, _) | Ast.Gunion (tag, fields, _)) as g ->
    let kw = match g with Ast.Gunion _ -> "union" | _ -> "struct" in
    Format.fprintf ppf "%s %s {" kw tag;
    List.iter
      (fun (name, ty) ->
        Format.fprintf ppf "@\n  ";
        decl_type ppf ty name;
        Format.pp_print_string ppf ";")
      fields;
    Format.fprintf ppf "@\n};"
  | Ast.Genum (tag, items, _) ->
    Format.fprintf ppf "enum %s {" tag;
    List.iteri
      (fun i (name, value) ->
        if i > 0 then Format.pp_print_string ppf ",";
        Format.fprintf ppf "@\n  %s" name;
        match value with
        | Some v -> Format.fprintf ppf " = %d" v
        | None -> ())
      items;
    Format.fprintf ppf "@\n};"
  | Ast.Gfunc_decl (name, ret, params, _) ->
    Format.fprintf ppf "%a %s(%a);" base_type ret name
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Ctype.pp)
      params

let pp_tunit ppf (tu : Ast.tunit) =
  List.iteri
    (fun i g ->
      if i > 0 then Format.fprintf ppf "@\n@\n";
      pp_global ppf g)
    tu.Ast.tu_globals;
  Format.fprintf ppf "@\n"

let expr_to_string e = Format.asprintf "%a" pp_expr e
let tunit_to_string tu = Format.asprintf "%a" pp_tunit tu
