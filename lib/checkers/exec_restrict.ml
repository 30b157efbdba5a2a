(** The handler execution-restriction checker — Section 8.

    FLASH's execution environment is more restrictive than C; without
    compiler support programmers stray into illegal territory silently.
    Checks, per the paper:

    - handlers take no parameters and return no results;
    - deprecated macros are flagged;
    - "no stack" handlers must carry exactly one [NO_STACK()] annotation
      at the top, must not take the address of locals, must not declare
      aggregates larger than 64 bits or too many locals, and must pair
      every call to another handler with a preceding [SET_STACKPTR()];
    - simulator hooks: the first statement of every handler must be
      [HANDLER_DEFS()] and the second the matching
      [SIM_HANDLER_HOOK]/[SIM_SWHANDLER_HOOK]; every ordinary routine must
      begin with [SIM_PROCEDURE_HOOK()]. *)

let name = "exec_restrict"
let metal_loc = 84 (* grouped with the paper's execution-restriction SMs *)

let max_no_stack_locals = 12

let diag ?(severity = Diag.Error) ~loc ~func fmt =
  Format.kasprintf
    (fun message -> Diag.make ~severity ~checker:name ~loc ~func message)
    fmt

let is_call_to stmt names =
  match stmt.Ast.sdesc with
  | Ast.Sexpr e -> (
    match Ast.callee_name e with
    | Some n when List.mem n names -> Some n
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-function checks                                                 *)
(* ------------------------------------------------------------------ *)

let check_signature ~(spec : Flash_api.spec) (f : Ast.func) : Diag.t list =
  if not (Flash_api.is_handler spec f.Ast.f_name) then []
  else
    let d = ref [] in
    if not (Ctype.equal f.Ast.f_ret Ctype.Void) then
      d :=
        diag ~loc:f.Ast.f_loc ~func:f.Ast.f_name
          "handler returns a result (handlers must be void)"
        :: !d;
    if f.Ast.f_params <> [] then
      d :=
        diag ~loc:f.Ast.f_loc ~func:f.Ast.f_name
          "handler takes parameters (handlers cannot take parameters)"
        :: !d;
    !d

(* every expression of every statement, with locations *)
let iter_all_exprs (f : Ast.func) (fn : Ast.expr -> unit) =
  List.iter
    (fun s -> Ast.iter_stmt_exprs (fun e -> Ast.iter_expr fn e) s)
    f.Ast.f_body

let check_deprecated (f : Ast.func) : Diag.t list =
  let d = ref [] in
  iter_all_exprs f (fun e ->
      match Ast.callee_name e with
      | Some n when List.mem n Flash_api.deprecated_macros ->
        d :=
          diag ~severity:Diag.Warning ~loc:e.Ast.eloc ~func:f.Ast.f_name
            "use of deprecated macro %s" n
          :: !d
      | _ -> ());
  !d

let check_no_stack ~(spec : Flash_api.spec) (f : Ast.func) : Diag.t list =
  match Flash_api.find_handler spec f.Ast.f_name with
  | Some h when h.Flash_api.h_no_stack ->
    let d = ref [] in
    let add ~loc fmt = Format.kasprintf
        (fun m -> d := Diag.make ~checker:name ~loc ~func:f.Ast.f_name m :: !d)
        fmt
    in
    (* exactly one NO_STACK() among the first three statements *)
    let heads =
      List.filteri (fun i _ -> i < 3) f.Ast.f_body
      |> List.filter_map (fun s -> is_call_to s [ Flash_api.no_stack ])
    in
    let total = Cutil.count_calls [ { Ast.tu_file = ""; tu_globals = [ Ast.Gfunc f ] } ] [ Flash_api.no_stack ]
    in
    if List.length heads <> 1 || total <> 1 then
      add ~loc:f.Ast.f_loc
        "no-stack handler must have exactly one NO_STACK() annotation at \
         the beginning";
    (* no address-of locals, no big aggregates, bounded local count *)
    let locals = ref 0 in
    List.iter
      (fun s ->
        Ast.iter_stmt
          (fun s ->
            match s.Ast.sdesc with
            | Ast.Sdecl v ->
              incr locals;
              if Ctype.sizeof v.Ast.v_type > 8 then
                add ~loc:s.Ast.sloc
                  "no-stack handler declares an aggregate larger than 64 \
                   bits";
            | _ -> ())
          s)
      f.Ast.f_body;
    if !locals > max_no_stack_locals then
      add ~loc:f.Ast.f_loc "no-stack handler declares too many locals (%d)"
        !locals;
    iter_all_exprs f (fun e ->
        match e.Ast.edesc with
        | Ast.Unop (Ast.Addrof, _) ->
          add ~loc:e.Ast.eloc
            "no-stack handler takes the address of a local"
        | _ -> ());
    (* SET_STACKPTR pairing: every call to another handler must be
       preceded by SET_STACKPTR, and every SET_STACKPTR must be followed
       by a call *)
    let rec scan armed stmts =
      match stmts with
      | [] -> ()
      | s :: rest -> (
        match s.Ast.sdesc with
        | Ast.Sexpr e -> (
          match Ast.callee_name e with
          | Some n when String.equal n Flash_api.set_stackptr ->
            if armed then
              add ~loc:s.Ast.sloc "spurious SET_STACKPTR (not followed by \
                                   a call)";
            scan true rest
          | Some n when Flash_api.is_handler spec n ->
            if not armed then
              add ~loc:s.Ast.sloc
                "call to handler %s without preceding SET_STACKPTR" n;
            scan false rest
          | _ -> scan false rest)
        | _ -> scan false rest)
    in
    scan false f.Ast.f_body;
    !d
  | _ -> []

let check_hooks ~(spec : Flash_api.spec) (f : Ast.func) : Diag.t list =
  let stmt n = List.nth_opt f.Ast.f_body n in
  let starts_with n names =
    match stmt n with
    | Some s -> is_call_to s names <> None
    | None -> false
  in
  match Flash_api.handler_kind spec f.Ast.f_name with
  | Flash_api.Hw_handler | Flash_api.Sw_handler ->
    let hook =
      match Flash_api.handler_kind spec f.Ast.f_name with
      | Flash_api.Hw_handler -> Flash_api.sim_handler_hook
      | _ -> Flash_api.sim_swhandler_hook
    in
    let d = ref [] in
    if not (starts_with 0 [ Flash_api.handler_defs ]) then
      d :=
        diag ~loc:f.Ast.f_loc ~func:f.Ast.f_name
          "handler does not begin with HANDLER_DEFS()"
        :: !d;
    if
      not
        (starts_with 1 [ hook; Flash_api.handler_prologue ])
    then
      d :=
        diag ~loc:f.Ast.f_loc ~func:f.Ast.f_name
          "simulator hook omitted (second statement must call %s)" hook
        :: !d;
    !d
  | Flash_api.Procedure ->
    if starts_with 0 [ Flash_api.sim_procedure_hook ] then []
    else
      [
        diag ~loc:f.Ast.f_loc ~func:f.Ast.f_name
          "simulator hook omitted (routine must begin with \
           SIM_PROCEDURE_HOOK())";
      ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let walk ~spec (f : Ast.func) : Diag.t list =
  check_signature ~spec f @ check_deprecated f @ check_no_stack ~spec f
  @ check_hooks ~spec f

(** Routines examined (the Handlers column of Table 5). *)
let applied (tus : Ast.tunit list) : int =
  List.fold_left
    (fun acc tu -> acc + List.length (Ast.functions tu))
    0 tus

(** Local variables examined (the Vars column of Table 5). *)
let vars_checked = Cutil.count_local_vars
