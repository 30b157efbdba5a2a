(** Code-building combinators for the corpus generator.

    Thin sugar over {!Ast} constructors so handler skeletons read almost
    like the C they generate. *)

let id name = Ast.ident name
let num n = Ast.int_lit n
let str s = Ast.mk_expr (Ast.Str_lit s)
let call name args = Ast.call name args

(** [HANDLER_GLOBALS(a.b.c)] for the dotted path ["a.b.c"]. *)
let hg path =
  let parts = String.split_on_char '.' path in
  match parts with
  | [] -> invalid_arg "Cb.hg: empty path"
  | root :: fields ->
    let e =
      List.fold_left
        (fun acc f -> Ast.mk_expr (Ast.Field (acc, f)))
        (id root) fields
    in
    call Flash_api.handler_globals [ e ]

let binop op a b = Ast.mk_expr (Ast.Binop (op, a, b))
let ( +: ) a b = binop Ast.Add a b
let ( -: ) a b = binop Ast.Sub a b
let ( *: ) a b = binop Ast.Mul a b
let ( ==: ) a b = binop Ast.Eq a b
let ( <>: ) a b = binop Ast.Ne a b
let ( <: ) a b = binop Ast.Lt a b
let ( >: ) a b = binop Ast.Gt a b
let ( &&: ) a b = binop Ast.Land a b
let ( ||: ) a b = binop Ast.Lor a b
let ( |: ) a b = binop Ast.Bor a b
let ( &: ) a b = binop Ast.Band a b
let ( ^: ) a b = binop Ast.Bxor a b
let ( <<: ) a b = binop Ast.Shl a b
let ( >>: ) a b = binop Ast.Shr a b
let not_ e = Ast.mk_expr (Ast.Unop (Ast.Not, e))

let assign lhs rhs = Ast.mk_stmt (Ast.Sexpr (Ast.mk_expr (Ast.Assign (lhs, rhs))))
let op_assign op lhs rhs =
  Ast.mk_stmt (Ast.Sexpr (Ast.mk_expr (Ast.Op_assign (op, lhs, rhs))))

let expr e = Ast.mk_stmt (Ast.Sexpr e)
let do_call name args = expr (call name args)
let block stmts = Ast.mk_stmt (Ast.Sblock stmts)
let sif cond then_ = Ast.mk_stmt (Ast.Sif (cond, block then_, None))
let sif_else cond then_ else_ =
  Ast.mk_stmt (Ast.Sif (cond, block then_, Some (block else_)))

let swhile cond body = Ast.mk_stmt (Ast.Swhile (cond, block body))
let sreturn = Ast.mk_stmt (Ast.Sreturn None)
let sreturn_e e = Ast.mk_stmt (Ast.Sreturn (Some e))
let sbreak = Ast.mk_stmt Ast.Sbreak

(** [switch e [(case_expr, body); ...] default] with a break after each
    case body (fall-through is introduced deliberately where wanted). *)
let sswitch e cases default =
  let case_stmts =
    List.concat_map
      (fun (ce, body) -> (Ast.mk_stmt (Ast.Scase ce) :: body) @ [ sbreak ])
      cases
  in
  let default_stmts =
    match default with
    | Some body -> (Ast.mk_stmt Ast.Sdefault :: body) @ [ sbreak ]
    | None -> []
  in
  Ast.mk_stmt (Ast.Sswitch (e, block (case_stmts @ default_stmts)))

let decl ?init name ty =
  Ast.mk_stmt
    (Ast.Sdecl
       { Ast.v_name = name; v_type = ty; v_init = init; v_loc = Loc.none;
         v_static = false })

let decl_long ?init name = decl ?init name Ctype.Long
let decl_int ?init name = decl ?init name Ctype.Int

let func ?(static = false) ?(ret = Ctype.Void) ?(params = []) name body =
  {
    Ast.f_name = name;
    f_ret = ret;
    f_params = params;
    f_body = body;
    f_loc = Loc.none;
    f_static = static;
    f_end_loc = Loc.none;
    f_src_digest = None;
  }

(* ------------------------------------------------------------------ *)
(* FLASH idioms                                                        *)
(* ------------------------------------------------------------------ *)

(** The two mandatory first statements of a handler. *)
let handler_prologue () =
  [ do_call Flash_api.handler_defs []; do_call Flash_api.handler_prologue [] ]

let sim_procedure_hook () = do_call Flash_api.sim_procedure_hook []

let len_assign value = assign (hg "header.nh.len") (id value)
let type_assign opcode = assign (hg "header.nh.type") (id opcode)

(** [NI_SEND(opcode, flag, keep, wait, dec, null)]. *)
let ni_send ?(wait = Flash_api.w_nowait) ~opcode ~flag () =
  do_call Flash_api.ni_send
    [ id opcode; id flag; num 0; id wait; num 1; num 0 ]

(** [PI_SEND(flag, keep, swap, wait, dec, null)]. *)
let pi_send ?(wait = Flash_api.w_nowait) ~flag () =
  do_call Flash_api.pi_send [ id flag; num 0; num 0; id wait; num 1; num 0 ]

(** [IO_SEND(flag, keep, swap, wait, dec, null)]. *)
let io_send ?(wait = Flash_api.w_nowait) ~flag () =
  do_call Flash_api.io_send [ id flag; num 0; num 0; id wait; num 1; num 0 ]

let free_db () = do_call Flash_api.free_db []
let load_dir addr = do_call Flash_api.load_dir_entry [ addr ]
let writeback_dir addr = do_call Flash_api.writeback_dir_entry [ addr ]
let dir_addr e = call Flash_api.dir_addr_macro [ e ]
let wait_db e = do_call Flash_api.wait_for_db_full [ e ]
let read_db addr off = call Flash_api.miscbus_read_db [ addr; num off ]
let write_db addr off v =
  do_call Flash_api.miscbus_write_db [ addr; num off; v ]
