(** Mutation-based bug seeding.

    Each mutation injects one of the paper's bug classes into a clean
    generated program and records a ground-truth label: the checker that
    must fire and the function it must blame.  Mutations are small AST
    edits on the raw unit (before materialisation), so the seeded program
    goes through exactly the same print/re-parse pipeline as the clean
    one. *)

type kind =
  | Drop_wait_reply  (** remove the wait after a synchronous send *)
  | Double_free  (** free the data buffer twice *)
  | Drop_free  (** leak the buffer on the exit path *)
  | Float_in_handler  (** declare and use a double *)
  | Len_mismatch  (** flip a length assignment against its send *)
  | Lane_overrun  (** duplicate a network send past the allowance *)
  | Drop_writeback  (** lose a directory-entry writeback *)
  | Drop_db_sync  (** read the data buffer without waiting for it *)
  | Drop_hook  (** omit the simulator hook *)
  | Drop_alloc_check  (** use an allocation before ALLOC_FAILED *)

let all_kinds =
  [
    Drop_wait_reply; Double_free; Drop_free; Float_in_handler; Len_mismatch;
    Lane_overrun; Drop_writeback; Drop_db_sync; Drop_hook; Drop_alloc_check;
  ]

let checker_of = function
  | Drop_wait_reply -> "send_wait"
  | Double_free | Drop_free -> "buffer_mgmt"
  | Float_in_handler -> "no_float"
  | Len_mismatch -> "msg_length"
  | Lane_overrun -> "lanes"
  | Drop_writeback -> "dir_entry"
  | Drop_db_sync -> "wait_for_db"
  | Drop_hook -> "exec_restrict"
  | Drop_alloc_check -> "alloc_check"

let kind_name = function
  | Drop_wait_reply -> "drop_wait_reply"
  | Double_free -> "double_free"
  | Drop_free -> "drop_free"
  | Float_in_handler -> "float_in_handler"
  | Len_mismatch -> "len_mismatch"
  | Lane_overrun -> "lane_overrun"
  | Drop_writeback -> "drop_writeback"
  | Drop_db_sync -> "drop_db_sync"
  | Drop_hook -> "drop_hook"
  | Drop_alloc_check -> "drop_alloc_check"

type mutation = {
  m_kind : kind;
  m_checker : string;  (** the checker that must fire *)
  m_func : string;  (** the function it must blame *)
  m_desc : string;
}

(* ------------------------------------------------------------------ *)
(* Statement surgery                                                   *)
(* ------------------------------------------------------------------ *)

let is_call_to names s =
  match s.Ast.sdesc with
  | Ast.Sexpr e -> (
    match Ast.callee_name e with
    | Some n when List.mem n names -> true
    | _ -> false)
  | _ -> false

(* [edit_nth pred edit n stmts]: apply [edit] to the [n]-th statement (in
   pre-order over nested blocks/branches/loops) satisfying [pred];
   [edit s] returns the replacement statement list.  Returns [None] when
   fewer than [n+1] statements match. *)
let edit_nth pred edit n stmts =
  let counter = ref n in
  let rec go_list stmts =
    match stmts with
    | [] -> None
    | s :: rest ->
      if pred s && (decr counter; !counter = -1) then Some (edit s @ rest)
      else (
        match go_stmt s with
        | Some s' -> Some (s' :: rest)
        | None -> (
          match go_list rest with
          | Some rest' -> Some (s :: rest')
          | None -> None))
  and go_stmt s =
    match s.Ast.sdesc with
    | Ast.Sblock b ->
      Option.map (fun b' -> { s with Ast.sdesc = Ast.Sblock b' }) (go_list b)
    | Ast.Sif (c, t, e) -> (
      match go_stmt t with
      | Some t' -> Some { s with Ast.sdesc = Ast.Sif (c, t', e) }
      | None ->
        Option.bind e (fun e' ->
            Option.map
              (fun e'' -> { s with Ast.sdesc = Ast.Sif (c, t, Some e'') })
              (go_stmt e')))
    | Ast.Swhile (c, b) ->
      Option.map
        (fun b' -> { s with Ast.sdesc = Ast.Swhile (c, b') })
        (go_stmt b)
    | Ast.Sdo (b, c) ->
      Option.map (fun b' -> { s with Ast.sdesc = Ast.Sdo (b', c) }) (go_stmt b)
    | Ast.Sfor (i, c, st, b) ->
      Option.map
        (fun b' -> { s with Ast.sdesc = Ast.Sfor (i, c, st, b') })
        (go_stmt b)
    | Ast.Sswitch (e, b) ->
      Option.map
        (fun b' -> { s with Ast.sdesc = Ast.Sswitch (e, b') })
        (go_stmt b)
    | _ -> None
  in
  go_list stmts

let count_matching pred stmts =
  let n = ref 0 in
  List.iter
    (fun s -> Ast.iter_stmt (fun s -> if pred s then incr n) s)
    stmts;
  !n

(* ------------------------------------------------------------------ *)
(* Site predicates                                                     *)
(* ------------------------------------------------------------------ *)

let is_wait_reply =
  is_call_to [ Flash_api.wait_for_pi_reply; Flash_api.wait_for_io_reply ]

let is_free = is_call_to [ Flash_api.free_db ]
let is_writeback = is_call_to [ Flash_api.writeback_dir_entry ]
let is_wait_db = is_call_to [ Flash_api.wait_for_db_full ]
let is_ni_send = is_call_to [ Flash_api.ni_send ]

let is_hook =
  is_call_to
    [
      Flash_api.sim_handler_hook; Flash_api.sim_swhandler_hook;
      Flash_api.sim_procedure_hook; Flash_api.handler_prologue;
    ]

let is_alloc_check_if s =
  match s.Ast.sdesc with
  | Ast.Sif (c, _, _) -> Ast.callee_name c = Some Flash_api.alloc_failed
  | _ -> false

(* HANDLER_GLOBALS(header.nh.len) = LEN_xxx, returning the constant *)
let len_assign_rhs s =
  match s.Ast.sdesc with
  | Ast.Sexpr
      {
        Ast.edesc =
          Ast.Assign
            ( { Ast.edesc = Ast.Call ({ edesc = Ast.Ident hg; _ }, [ path ]); _ },
              { Ast.edesc = Ast.Ident rhs; _ } );
        _;
      }
    when String.equal hg Flash_api.handler_globals -> (
    match path.Ast.edesc with
    | Ast.Field (_, "len") -> Some rhs
    | _ -> None)
  | _ -> None

(* functions that ever prepare a NAK reply: a dropped writeback there can
   be pruned by the checker's speculative-path rule, so skip them *)
let sets_nak f =
  count_matching
    (fun s ->
      match s.Ast.sdesc with
      | Ast.Sexpr
          {
            Ast.edesc =
              Ast.Assign (_, { Ast.edesc = Ast.Ident rhs; _ });
            _;
          } ->
        String.equal rhs Flash_api.msg_nak
      | _ -> false)
    f.Ast.f_body
  > 0

(* a send with the wait bit set *)
let has_sync_send f =
  count_matching
    (fun s ->
      match s.Ast.sdesc with
      | Ast.Sexpr { Ast.edesc = Ast.Call ({ edesc = Ast.Ident m; _ }, args); _ }
        when List.mem m [ Flash_api.pi_send; Flash_api.io_send ] ->
        List.exists
          (fun a ->
            match a.Ast.edesc with
            | Ast.Ident w -> String.equal w Flash_api.w_wait
            | _ -> false)
          args
      | _ -> false)
    f.Ast.f_body
  > 0

(* ------------------------------------------------------------------ *)
(* The mutations                                                       *)
(* ------------------------------------------------------------------ *)

let float_decl =
  Ast.mk_stmt
    (Ast.Sdecl
       {
         Ast.v_name = "fzflt";
         v_type = Ctype.Double;
         v_init = Some (Ast.mk_expr (Ast.Float_lit (1.5, "1.5")));
         v_loc = Loc.none;
         v_static = false;
       })

(* per-kind: (eligible function filter, site predicate, edit, site picker)
   where the picker chooses WHICH matching site — some rules are only
   guaranteed to fire on the first or last site *)
type site_choice = First | Last | Random

let plan kind =
  match kind with
  | Drop_wait_reply -> (has_sync_send, is_wait_reply, (fun _ -> []), First)
  | Double_free -> ((fun _ -> true), is_free, (fun s -> [ s; s ]), Random)
  | Drop_free -> ((fun _ -> true), is_free, (fun _ -> []), Last)
  | Float_in_handler ->
    ((fun _ -> true), is_hook, (fun s -> [ s; float_decl ]), First)
  | Len_mismatch ->
    ( (fun _ -> true),
      (fun s -> len_assign_rhs s <> None),
      (fun s ->
        let flipped =
          match len_assign_rhs s with
          | Some l when String.equal l Flash_api.len_nodata ->
            Flash_api.len_cacheline
          | _ -> Flash_api.len_nodata
        in
        [ Cb.len_assign flipped ]),
      Random )
  | Lane_overrun -> ((fun _ -> true), is_ni_send, (fun s -> [ s; s ]), Random)
  | Drop_writeback ->
    ((fun f -> not (sets_nak f)), is_writeback, (fun _ -> []), Last)
  | Drop_db_sync -> ((fun _ -> true), is_wait_db, (fun _ -> []), First)
  | Drop_hook -> ((fun _ -> true), is_hook, (fun _ -> []), First)
  | Drop_alloc_check ->
    ((fun _ -> true), is_alloc_check_if, (fun _ -> []), First)

(** [apply rng kind raw] seeds one bug of [kind] into a uniformly chosen
    eligible function of [raw]; [None] when no function has a matching
    site. *)
let apply rng kind (raw : Ast.tunit) : (Ast.tunit * mutation) option =
  let eligible, pred, edit, choice = plan kind in
  let candidates =
    List.filter_map
      (fun g ->
        match g with
        | Ast.Gfunc f when eligible f ->
          let n = count_matching pred f.Ast.f_body in
          if n > 0 then Some (f.Ast.f_name, n) else None
        | _ -> None)
      raw.Ast.tu_globals
  in
  match candidates with
  | [] -> None
  | _ ->
    let fname, n_sites = Rng.choose rng candidates in
    let site =
      match choice with
      | First -> 0
      | Last -> n_sites - 1
      | Random -> Rng.int rng n_sites
    in
    let mutated = ref false in
    let tu_globals =
      List.map
        (fun g ->
          match g with
          | Ast.Gfunc f when String.equal f.Ast.f_name fname && not !mutated
            -> (
            match edit_nth pred edit site f.Ast.f_body with
            | Some body ->
              mutated := true;
              Ast.Gfunc (Ast.with_body f body)
            | None -> g)
          | _ -> g)
        raw.Ast.tu_globals
    in
    if not !mutated then None
    else
      Some
        ( { raw with Ast.tu_globals },
          {
            m_kind = kind;
            m_checker = checker_of kind;
            m_func = fname;
            m_desc =
              Printf.sprintf "%s at site %d of %s" (kind_name kind) site fname;
          } )
