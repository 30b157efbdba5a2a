(** The manual directory-entry update checker — Section 9.

    Unlike ordinary variables, directory entries must be explicitly
    loaded, modified in the handler-globals copy, and explicitly written
    back.  The checker enforces, within handlers:

    + the entry is loaded before any [dirEntry] access;
    + a modified entry is written back before the handler exits —
      except on speculative paths that back out by sending a NAK, which
      the checker recognises through the [MSG_NAK] header constant
      (the paper's false-positive pruning);
    + the entry address passed to [LOAD_DIR_ENTRY]/[WRITEBACK_DIR_ENTRY]
      comes from [DIR_ADDR] (hand-computed addresses are the paper's
      "abstraction errors").

    In subroutines the load rule is relaxed (the caller usually holds the
    entry), but modifications are reported because the subroutine depends
    on its caller writing the entry back — these are the "subroutine"
    false positives that dominate the paper's Table 6 and that manual
    annotation would turn into checked documentation. *)

let name = "dir_entry"
let metal_loc = 51

type state = {
  in_handler : bool;
  loaded : bool;
  modified : bool;
  nak : bool;  (** a NAK reply was prepared after the modification *)
}

let a = ("a", Pattern.Scalar)

let load_any = Pattern.expr ~decls:[ a ] (Flash_api.load_dir_entry ^ "(a)")

let load_abstract =
  Pattern.expr ~decls:[ a ]
    (Flash_api.load_dir_entry ^ "(" ^ Flash_api.dir_addr_macro ^ "(a))")

let writeback_any =
  Pattern.expr ~decls:[ a ] (Flash_api.writeback_dir_entry ^ "(a)")

let nak_assign =
  Pattern.expr
    ("HANDLER_GLOBALS(header.nh.type) = " ^ Flash_api.msg_nak)

(* a dirEntry access at the root of the event: HANDLER_GLOBALS(dirEntry.f)
   reads, or assignments whose LHS is such an access *)
let dir_access (e : Ast.expr) : [ `Read | `Write ] option =
  let is_dir_hg e =
    match e.Ast.edesc with
    | Ast.Call ({ edesc = Ast.Ident hg; _ }, [ arg ])
      when String.equal hg Flash_api.handler_globals ->
      let rec base a =
        match a.Ast.edesc with
        | Ast.Field (inner, _) -> base inner
        | Ast.Ident r -> Some r
        | _ -> None
      in
      base arg = Some Flash_api.dir_entry_prefix
    | _ -> false
  in
  match e.Ast.edesc with
  | Ast.Assign (lhs, _) when is_dir_hg lhs -> Some `Write
  | Ast.Op_assign (_, lhs, _) when is_dir_hg lhs -> Some `Write
  | _ -> if is_dir_hg e then Some `Read else None

(* assignments in all the spellings protocol code uses *)
let any_assign =
  let d = [ ("_l", Pattern.Any); ("_r", Pattern.Any) ] in
  Pattern.alt
    (List.map (Pattern.expr ~decls:d)
       [ "_l = _r"; "_l |= _r"; "_l &= _r"; "_l += _r"; "_l -= _r";
         "_l ^= _r" ])

let sm ?(nak_pruning = true) ~(spec : Flash_api.spec) () : state Sm.t =
  Sm.make ~name
    ~start:(fun f ->
      let kind = Flash_api.handler_kind spec f.Ast.f_name in
      let in_handler = kind <> Flash_api.Procedure in
      Some { in_handler; loaded = false; modified = false; nak = false })
    ~rules:(fun st ->
      [
        (* the abstraction check comes first: a well-formed load leaves
           the state loaded quietly, a hand-computed one warns *)
        Sm.rule load_abstract (fun _ ->
            Sm.Goto { st with loaded = true; modified = false });
        Sm.rule load_any (fun ctx ->
            Sm.err ~severity:Diag.Warning ~checker:name ctx
              "directory entry address computed by hand (use DIR_ADDR)";
            Sm.Goto { st with loaded = true; modified = false });
        Sm.rule writeback_any (fun _ -> Sm.Goto { st with modified = false });
        Sm.rule nak_assign (fun _ ->
            if nak_pruning then Sm.Goto { st with nak = true } else Sm.Stay);
        (* any other event: classify dirEntry reads/writes by hand *)
        Sm.rule any_assign
          (fun ctx ->
            match dir_access ctx.Sm.matched with
            | Some `Write ->
              if st.in_handler && not st.loaded then begin
                Sm.err ~checker:name ctx
                  "directory entry modified before being loaded";
                Sm.Stop
              end
              else if not st.in_handler then begin
                Sm.err ~severity:Diag.Warning ~checker:name ctx
                  "subroutine modifies the directory entry; the caller \
                   must write it back";
                Sm.Stop
              end
              else Sm.Goto { st with modified = true; nak = false }
            | Some `Read | None -> Sm.Stay);
        Sm.rule
          (Pattern.expr ~decls:[ ("_e", Pattern.Any) ] "HANDLER_GLOBALS(_e)")
          (fun ctx ->
            match dir_access ctx.Sm.matched with
            | Some `Read when st.in_handler && not st.loaded ->
              Sm.err ~checker:name ctx
                "directory entry read before being loaded";
              Sm.Stop
            | _ -> Sm.Stay);
      ])
    ~state_to_string:(fun st ->
      Printf.sprintf "loaded=%b modified=%b nak=%b" st.loaded st.modified
        st.nak)
    ()

let exit_hook : state Engine.exit_hook =
  fun ctx st ->
  if st.in_handler && st.modified && not st.nak then
    Sm.err ~checker:name ctx
      "modified directory entry not written back on this path"

let machine ?nak_pruning ~spec () =
  Engine.machine ~at_exit:exit_hook (sm ?nak_pruning ~spec ())

(** Directory operations examined: loads, writebacks and dirEntry
    accesses — the Applied column of Table 6. *)
let applied (tus : Ast.tunit list) : int =
  let count = ref 0 in
  List.iter
    (fun tu ->
      List.iter
        (fun f ->
          List.iter
            (fun s ->
              Ast.iter_stmt_exprs
                (fun e ->
                  Ast.iter_expr
                    (fun e ->
                      match Ast.callee_name e with
                      | Some n
                        when String.equal n Flash_api.load_dir_entry
                             || String.equal n Flash_api.writeback_dir_entry
                        ->
                        incr count
                      | Some n when String.equal n Flash_api.handler_globals
                        ->
                        if
                          Cutil.refs_handler_global e
                            ~root:Flash_api.dir_entry_prefix
                        then incr count
                      | _ -> ())
                    e)
                s)
            f.Ast.f_body)
        (Ast.functions tu))
    tus;
  !count
