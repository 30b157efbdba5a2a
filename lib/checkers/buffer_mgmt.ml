(** The buffer-management checker — Section 6.

    FLASH data buffers are manually reference-counted; this checker
    enforces the paper's four conservative rules:

    + hardware handlers begin execution with a data buffer they must free;
    + software handlers begin without one and must allocate before sending;
    + after a free, no send can occur until another buffer is allocated;
    + once a buffer is allocated it must be freed before allocating again.

    Frees can be explicit ([FREE_DB]) or through routines listed in the
    protocol spec as expecting-and-freeing; uses likewise.  Those listed
    routines are themselves checked for consistency with their table
    entry.  The two annotation functions [has_buffer()] and
    [no_free_needed()] suppress warnings and are tracked so unused
    annotations can be reported (Section 6.1).  The checker is also
    path-sensitive in the value of the spec's conditional-free routines
    (the paper's twelve-line refinement), and — after the Section 11
    incident — aggressively objects to any use of [DB_INC_REFCOUNT]. *)

let name = "buffer_mgmt"
let metal_loc = 94

type state = Has_buf | No_buf

(* What must hold at function exit, per the spec's tables. *)
type role =
  | R_hw_handler
  | R_sw_handler
  | R_free_func  (** must end without the buffer *)
  | R_use_func  (** must end still holding the buffer *)
  | R_cond_free  (** may end either way *)

type outcome = {
  diags : Diag.t list;
  useful_annotations : int;
  unused_annotations : int;
}

let role_of (spec : Flash_api.spec) fname : role option =
  match Flash_api.handler_kind spec fname with
  | Flash_api.Hw_handler -> Some R_hw_handler
  | Flash_api.Sw_handler -> Some R_sw_handler
  | Flash_api.Procedure ->
    if List.mem fname spec.Flash_api.p_free_funcs then Some R_free_func
    else if List.mem fname spec.Flash_api.p_use_funcs then Some R_use_func
    else if List.mem fname spec.Flash_api.p_cond_free_funcs then
      Some R_cond_free
    else None

let wild = ("_x", Pattern.Any)

let call0 name = Pattern.expr (name ^ "()")
let call_any name = Pattern.alt [ call0 name; Pattern.call name ~arity:1 ]

(* any of the three send macros, any arguments *)
let send_pattern =
  let d =
    [ ("a1", Pattern.Any); ("a2", Pattern.Any); ("a3", Pattern.Any);
      ("a4", Pattern.Any); ("a5", Pattern.Any); ("a6", Pattern.Any) ]
  in
  Pattern.alt
    (List.map
       (fun m -> Pattern.expr ~decls:d (m ^ "(a1, a2, a3, a4, a5, a6)"))
       Flash_api.send_macros)

let use_pattern =
  Pattern.alt
    [
      Pattern.expr ~decls:[ wild; ("_y", Pattern.Any) ]
        (Flash_api.miscbus_read_db ^ "(_x, _y)");
      Pattern.expr ~decls:[ wild; ("_y", Pattern.Any); ("_z", Pattern.Any) ]
        (Flash_api.miscbus_write_db ^ "(_x, _y, _z)");
    ]

let alloc_pattern = call0 Flash_api.allocate_db
let free_pattern = call0 Flash_api.free_db

let make_sm ~(spec : Flash_api.spec) ~(suppress : Suppress.t) : state Sm.t =
  let free_calls =
    Pattern.alt
      (free_pattern :: List.map call_any spec.Flash_api.p_free_funcs)
  in
  let use_calls =
    Pattern.alt (use_pattern :: List.map call_any spec.Flash_api.p_use_funcs)
  in
  let annot pat_name next_state_if_used =
    Sm.rule (call0 pat_name) (fun ctx ->
        let ann =
          Suppress.record suppress ~name:pat_name ~loc:ctx.Sm.loc
            ~func:ctx.Sm.func.Ast.f_name
        in
        (* an annotation that changes the checker's mind is "useful" *)
        Suppress.mark_used ann;
        next_state_if_used)
  in
  let refcount_rule =
    (* the Section 11 lesson: a manual refcount bump blinds the checker,
       so it now objects loudly *)
    Sm.rule (call0 Flash_api.db_inc_refcount) (fun ctx ->
        Sm.err ~severity:Diag.Warning ~checker:name ctx
          "manual reference-count manipulation (DB_INC_REFCOUNT): checker \
           cannot track this buffer";
        Sm.Stay)
  in
  let err_stop ctx msg =
    Sm.err ~checker:name ctx "%s" msg;
    Sm.Stop
  in
  Sm.make ~name
    ~start:(fun f ->
      match role_of spec f.Ast.f_name with
      | Some (R_hw_handler | R_free_func | R_use_func | R_cond_free) ->
        Some Has_buf
      | Some R_sw_handler -> Some No_buf
      | None -> None)
    ~all:[ refcount_rule ]
    ~rules:(function
      | Has_buf ->
        [
          Sm.goto_rule free_calls No_buf;
          Sm.rule alloc_pattern (fun ctx ->
              err_stop ctx
                "buffer allocated while the current buffer is still held");
          annot Flash_api.ann_no_free_needed (Sm.Goto No_buf);
          (* has_buffer() in the has-buffer state is a no-op; it is
             recorded (unused) so spurious annotations get flagged *)
          Sm.rule (call0 Flash_api.ann_has_buffer) (fun ctx ->
              ignore
                (Suppress.record suppress ~name:Flash_api.ann_has_buffer
                   ~loc:ctx.Sm.loc ~func:ctx.Sm.func.Ast.f_name);
              Sm.Stay);
          Sm.rule use_calls (fun _ -> Sm.Stay);
        ]
      | No_buf ->
        [
          Sm.goto_rule alloc_pattern Has_buf;
          annot Flash_api.ann_has_buffer (Sm.Goto Has_buf);
          Sm.rule free_calls (fun ctx -> err_stop ctx "double free of buffer");
          Sm.rule send_pattern (fun ctx ->
              err_stop ctx "send without a data buffer");
          Sm.rule use_calls (fun ctx ->
              err_stop ctx "use of buffer after free");
        ])
    ~branch:(fun state cond direction ->
      (* path sensitivity on tests whose outcome decides buffer ownership:
         the true branch of `if (TryFreeBuffer())` has freed the buffer,
         and the true branch of `if (ALLOC_FAILED(buf))` never got one *)
      let is_cond_free e =
        match Ast.callee_name e with
        | Some n -> List.mem n spec.Flash_api.p_cond_free_funcs
        | None -> false
      in
      let is_alloc_failed e =
        Ast.callee_name e = Some Flash_api.alloc_failed
      in
      let rec classify e =
        if is_cond_free e || is_alloc_failed e then Some direction
        else
          match e.Ast.edesc with
          | Ast.Unop (Ast.Not, inner) -> Option.map not (classify inner)
          | _ -> None
      in
      match classify cond with
      | Some true -> No_buf
      | Some false -> state
      | None -> state)
    ~state_to_string:(function Has_buf -> "has_buf" | No_buf -> "no_buf")
    ()

let exit_hook ~spec (suppress : Suppress.t) : state Engine.exit_hook =
  let _ = suppress in
  fun ctx state ->
    match (role_of spec ctx.Sm.func.Ast.f_name, state) with
    | Some (R_hw_handler | R_sw_handler), Has_buf ->
      Sm.err ~checker:name ctx "buffer not freed on this path (leak)"
    | Some R_free_func, Has_buf ->
      Sm.err ~checker:name ctx
        "listed as freeing the buffer but does not free it on this path"
    | Some R_use_func, No_buf ->
      Sm.err ~checker:name ctx
        "listed as only using the buffer but frees it on this path"
    | _ -> ()

let annotations () =
  Suppress.create
    ~reserved:[ Flash_api.ann_has_buffer; Flash_api.ann_no_free_needed ]

let run_with_annotations ~spec (tus : Ast.tunit list) : outcome =
  let suppress = annotations () in
  let sm = make_sm ~spec ~suppress in
  let diags =
    Engine.check ~at_exit:(exit_hook ~spec suppress) sm (`Program tus)
  in
  {
    diags;
    useful_annotations = List.length (Suppress.useful suppress);
    unused_annotations = List.length (Suppress.unused suppress);
  }

(* Each staging gets its own annotation table: the table only feeds the
   Table 4 counters of [run_with_annotations], which builds its own,
   never the diagnostics, so recording into a staged one is inert. *)
let machine ~spec =
  let suppress = annotations () in
  Engine.machine ~at_exit:(exit_hook ~spec suppress) (make_sm ~spec ~suppress)

(** Buffer operations examined (frees, allocations, sends). *)
let applied (tus : Ast.tunit list) : int =
  Cutil.count_calls tus
    (Flash_api.free_db :: Flash_api.allocate_db :: Flash_api.send_macros)
