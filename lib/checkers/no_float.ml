(** The no-floating-point checker — the paper's separate 7-line metal
    extension (Table 7).

    The MAGIC protocol processor has no floating-point unit, so FLASH code
    must never touch a float.  The published extension "registers a
    function with xg++ that is invoked on every tree node and checks that
    no tree node has a floating point type"; this is the same walk over
    the type-annotated AST. *)

let name = "no_float"
let metal_loc = 7

let diag ~loc ~func msg = Diag.make ~checker:name ~loc ~func msg

let walk ~spec (f : Ast.func) : Diag.t list =
  let _ = spec in
  let diags = ref [] in
  let on_expr (e : Ast.expr) =
    let is_float =
      match e.Ast.edesc with
      | Ast.Float_lit _ -> true
      | _ -> (
        match e.Ast.ety with
        | Some t -> Ctype.is_floating t
        | None -> false)
    in
    if is_float then
      diags :=
        diag ~loc:e.Ast.eloc ~func:f.Ast.f_name
          "floating point operation in protocol code"
        :: !diags
  in
  List.iter
    (fun s ->
      Ast.iter_stmt
        (fun s ->
          match s.Ast.sdesc with
          | Ast.Sdecl v when Ctype.is_floating v.Ast.v_type ->
            diags :=
              diag ~loc:s.Ast.sloc ~func:f.Ast.f_name
                "floating point variable in protocol code"
              :: !diags
          | _ -> ())
        s)
    f.Ast.f_body;
  List.iter
    (fun s -> Ast.iter_stmt_exprs (fun e -> Ast.iter_expr on_expr e) s)
    f.Ast.f_body;
  (* float-typed parameters and return values are just as illegal *)
  if Ctype.is_floating f.Ast.f_ret then
    diags :=
      diag ~loc:f.Ast.f_loc ~func:f.Ast.f_name
        "handler returns a floating point value"
      :: !diags;
  List.iter
    (fun (pname, ty) ->
      if Ctype.is_floating ty then
        diags :=
          diag ~loc:f.Ast.f_loc ~func:f.Ast.f_name
            (Printf.sprintf "floating point parameter %s" pname)
          :: !diags)
    f.Ast.f_params;
  !diags

(** Expressions examined. *)
let applied (tus : Ast.tunit list) : int =
  let count = ref 0 in
  List.iter
    (fun tu ->
      List.iter
        (fun (f : Ast.func) ->
          List.iter
            (fun s ->
              Ast.iter_stmt_exprs
                (fun e -> Ast.iter_expr (fun _ -> incr count) e)
                s)
            f.Ast.f_body)
        (Ast.functions tu))
    tus;
  !count
