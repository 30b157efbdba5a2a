(** The buffer-allocation failure checker — Section 9.

    [ALLOCATE_DB()] can fail when no buffers are available, so every
    allocation must be checked with [ALLOC_FAILED] before the buffer is
    written (or otherwise used).  The state machine tracks the variable
    the allocation was stored into; the check is cleared by an
    [ALLOC_FAILED] test of that same variable on the path. *)

let name = "alloc_check"
let metal_loc = 16

type state =
  | Idle
  | Unchecked of Ast.expr  (** allocation stored here, not yet checked *)

let x = ("x", Pattern.Scalar)

let alloc_assign =
  Pattern.expr ~decls:[ x ] ("x = " ^ Flash_api.allocate_db ^ "()")

let failed_test = Pattern.expr ~decls:[ x ] (Flash_api.alloc_failed ^ "(x)")

(* uses of the raw buffer value before the check *)
let uses =
  [
    Pattern.expr ~decls:[ x; ("_o", Pattern.Any); ("_v", Pattern.Any) ]
      (Flash_api.miscbus_write_db ^ "(x, _o, _v)");
    Pattern.expr ~decls:[ ("_f", Pattern.Any); x ] "DEBUG_PRINT(_f, x)";
  ]

let bound ctx = Binding.find ctx.Sm.bindings "x"

let sm : state Sm.t =
  Sm.make ~name
    ~start:(fun _ -> Some Idle)
    ~all:
      [
        Sm.rule alloc_assign (fun ctx ->
            match bound ctx with
            | Some var -> Sm.Goto (Unchecked var)
            | None -> Sm.Stay);
      ]
    ~rules:(function
      | Idle -> []
      | Unchecked var ->
        [
          Sm.rule failed_test (fun ctx ->
              match bound ctx with
              | Some tested when Ast.equal_expr tested var -> Sm.Goto Idle
              | _ -> Sm.Stay);
          Sm.rule (Pattern.alt uses) (fun ctx ->
              match bound ctx with
              | Some used when Ast.equal_expr used var ->
                Sm.err ~checker:name ctx
                  "buffer used before checking ALLOC_FAILED";
                Sm.Goto Idle
              | _ -> Sm.Stay);
        ])
    ~state_to_string:(function
      | Idle -> "idle"
      | Unchecked _ -> "unchecked")
    ()

let machine ~spec =
  let _ = spec in
  Engine.machine sm

(** Number of allocations — the Applied column of Table 6. *)
let applied (tus : Ast.tunit list) : int =
  Cutil.count_calls tus [ Flash_api.allocate_db ]
