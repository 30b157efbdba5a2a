(** Automatic repair for checker findings — the "transform" half of MC.

    The paper frames meta-level compilation as a framework to "check,
    transform, and optimize system-level operations"; the FLASH case study
    only checks.  This module closes the loop for the three most
    mechanical findings: missing simulator hooks, unsynchronised buffer
    reads, and buffer leaks at returns.  Each fix is a source-to-source
    AST rewrite; the test suite re-runs the corresponding checker on the
    result and demands silence.

    Double frees are deliberately NOT auto-fixed: the paper's Section 11
    war story is exactly an implementor doing the "obvious fix" of
    deleting the second free — and unbooting the machine, because a
    manual refcount bump a few lines up was the real culprit.  Tools
    should point at double frees, not delete them. *)

(* rewrite every statement list in a function, innermost blocks first;
   [f] maps one statement to its replacement list *)
let rec map_stmt_list (f : Ast.stmt -> Ast.stmt list) (stmts : Ast.stmt list)
    : Ast.stmt list =
  List.concat_map
    (fun s ->
      let s =
        let mk sdesc = { s with Ast.sdesc } in
        match s.Ast.sdesc with
        | Ast.Sblock body -> mk (Ast.Sblock (map_stmt_list f body))
        | Ast.Sif (c, t, e) ->
          mk
            (Ast.Sif
               ( c,
                 block_map f t,
                 Option.map (block_map f) e ))
        | Ast.Swhile (c, body) -> mk (Ast.Swhile (c, block_map f body))
        | Ast.Sdo (body, c) -> mk (Ast.Sdo (block_map f body, c))
        | Ast.Sfor (i, c, st, body) ->
          mk (Ast.Sfor (i, c, st, block_map f body))
        | Ast.Sswitch (e, body) -> mk (Ast.Sswitch (e, block_map f body))
        | _ -> s
      in
      f s)
    stmts

and block_map f (s : Ast.stmt) : Ast.stmt =
  match s.Ast.sdesc with
  | Ast.Sblock body -> { s with Ast.sdesc = Ast.Sblock (map_stmt_list f body) }
  | _ -> (
    match map_stmt_list f [ s ] with
    | [ one ] -> one
    | many -> { s with Ast.sdesc = Ast.Sblock many })

let map_funcs (f : Ast.func -> Ast.func) (tu : Ast.tunit) : Ast.tunit =
  {
    tu with
    Ast.tu_globals =
      List.map
        (function Ast.Gfunc fn -> Ast.Gfunc (f fn) | g -> g)
        tu.Ast.tu_globals;
  }

let stmt_is_call (s : Ast.stmt) names =
  match s.Ast.sdesc with
  | Ast.Sexpr e -> (
    match Ast.callee_name e with Some n -> List.mem n names | None -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Fix 1: missing simulator hooks (Section 8 / Table 5)                *)
(* ------------------------------------------------------------------ *)

(** Insert the mandated prologue calls where the execution-restriction
    checker would flag their absence. *)
let fix_hooks ~(spec : Flash_api.spec) (tu : Ast.tunit) : Ast.tunit =
  map_funcs
    (fun fn ->
      match Flash_api.handler_kind spec fn.Ast.f_name with
      | Flash_api.Procedure ->
        if stmt_is_call (List.nth_opt fn.Ast.f_body 0 |> Option.value
                           ~default:Cb.sreturn)
             [ Flash_api.sim_procedure_hook ]
           && fn.Ast.f_body <> []
        then fn
        else
          Ast.with_body fn
            (Cb.do_call Flash_api.sim_procedure_hook [] :: fn.Ast.f_body)
      | kind ->
        let hook =
          match kind with
          | Flash_api.Hw_handler -> Flash_api.sim_handler_hook
          | _ -> Flash_api.sim_swhandler_hook
        in
        let body = fn.Ast.f_body in
        let has n i =
          match List.nth_opt body i with
          | Some s -> stmt_is_call s n
          | None -> false
        in
        (* peel whatever prologue is present, then rebuild it in full *)
        let rest =
          body
          |> (fun b -> if has [ Flash_api.handler_defs ] 0 then List.tl b else b)
          |> fun b ->
          if
            b <> []
            && stmt_is_call (List.hd b)
                 [ hook; Flash_api.handler_prologue;
                   Flash_api.sim_handler_hook; Flash_api.sim_swhandler_hook ]
          then List.tl b
          else b
        in
        Ast.with_body fn
          (Cb.do_call Flash_api.handler_defs [] :: Cb.do_call hook [] :: rest))
    tu

(* ------------------------------------------------------------------ *)
(* Fix 2: unsynchronised buffer reads (Section 4 / Table 2)            *)
(* ------------------------------------------------------------------ *)

(* does this statement contain a read flagged at one of [locs]? if so,
   return the read's address argument *)
let flagged_read_in (s : Ast.stmt) (locs : Loc.t list) : Ast.expr option =
  let found = ref None in
  Ast.iter_stmt_exprs
    (fun e ->
      Ast.iter_expr
        (fun e ->
          match e.Ast.edesc with
          | Ast.Call ({ edesc = Ast.Ident n; _ }, addr :: _)
            when (String.equal n Flash_api.miscbus_read_db
                 || String.equal n Flash_api.miscbus_read_db_old)
                 && List.exists (Loc.equal e.Ast.eloc) locs ->
            if !found = None then found := Some addr
          | _ -> ())
        e)
    s;
  !found

(** Insert a [WAIT_FOR_DB_FULL] immediately before each statement
    containing a read the buffer-race checker flagged. *)
let fix_races ~(diags : Diag.t list) (tu : Ast.tunit) : Ast.tunit =
  let locs =
    List.filter_map
      (fun (d : Diag.t) ->
        if String.equal d.Diag.checker Buffer_race.name then Some d.Diag.loc
        else None)
      diags
  in
  if locs = [] then tu
  else
    map_funcs
      (fun fn ->
        Ast.with_body fn
          (map_stmt_list
             (fun s ->
               match flagged_read_in s locs with
               | Some addr -> [ Cb.wait_db addr; s ]
               | None -> [ s ])
             fn.Ast.f_body))
      tu

(* ------------------------------------------------------------------ *)
(* Fix 3: buffer leaks at returns (Section 6 / Table 4)                *)
(* ------------------------------------------------------------------ *)

(** Insert a [FREE_DB()] before the return statements on paths the
    buffer-management checker reported as leaking.  The leak diagnostic's
    back trace pins down which return. *)
let fix_leaks ~(spec : Flash_api.spec) ~(diags : Diag.t list)
    (tu : Ast.tunit) : Ast.tunit =
  let leaks =
    List.filter
      (fun (d : Diag.t) ->
        String.equal d.Diag.checker Buffer_mgmt.name
        && String.length d.Diag.message >= 4
        && String.sub d.Diag.message 0 4 = "buff"
        (* "buffer not freed on this path (leak)" *))
      diags
  in
  if leaks = [] then tu
  else
    map_funcs
      (fun fn ->
        let fn_leaks =
          List.filter
            (fun (d : Diag.t) -> String.equal d.Diag.func fn.Ast.f_name)
            leaks
        in
        if fn_leaks = [] then fn
        else begin
          let trace_locs =
            List.concat_map (fun (d : Diag.t) -> d.Diag.trace) fn_leaks
          in
          let patched = ref false in
          let body =
            map_stmt_list
              (fun s ->
                match s.Ast.sdesc with
                | Ast.Sreturn _
                  when List.exists (Loc.equal s.Ast.sloc) trace_locs ->
                  patched := true;
                  [ Cb.free_db (); s ]
                | _ -> [ s ])
              fn.Ast.f_body
          in
          (* a leak on the implicit fall-off-the-end path *)
          let body =
            if !patched then body else body @ [ Cb.free_db () ]
          in
          ignore spec;
          Ast.with_body fn body
        end)
      tu

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(** Apply every supported fix to a program: run the relevant checkers,
    patch what they flag, and return the rewritten units.  Iterates once
    — the test suite asserts that one round silences the three fixed
    checkers. *)
let fix_all ~(spec : Flash_api.spec) (tus : Ast.tunit list) : Ast.tunit list
    =
  let diags name = Registry.run (Option.get (Registry.find name)) ~spec tus in
  let race_diags = diags Buffer_race.name in
  let buf_diags = diags Buffer_mgmt.name in
  List.map
    (fun tu ->
      tu |> fix_hooks ~spec |> fix_races ~diags:race_diags
      |> fix_leaks ~spec ~diags:buf_diags)
    tus
