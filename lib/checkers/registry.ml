(** The nine FLASH checkers, with the metadata Table 7 reports, behind
    the two-phase checker interface the [Mcd] scheduler drives. *)

type ctx = {
  all_units : Ast.tunit list;
  callgraph : Callgraph.t Lazy.t;
}

let make_ctx tus = { all_units = tus; callgraph = lazy (Callgraph.build tus) }

type check_fn = spec:Flash_api.spec -> ctx:ctx -> Prep.t -> Diag.t list
type check_global = spec:Flash_api.spec -> Ast.tunit list -> Diag.t list

type phase =
  | Per_function of {
      check_fn : check_fn;
      finalize : Diag.t list -> Diag.t list;
      product : spec:Flash_api.spec -> Engine.pmachine option;
    }
  | Whole_program of check_global

type checker = {
  name : string;
  description : string;
  metal_loc : int;
  phase : phase;
  run : spec:Flash_api.spec -> Ast.tunit list -> Diag.t list;
  applied : Ast.tunit list -> int;
}

let run_of_phase (phase : phase) : spec:Flash_api.spec -> Ast.tunit list ->
  Diag.t list =
  match phase with
  | Per_function { check_fn; finalize; _ } ->
    fun ~spec tus ->
      let ctx = make_ctx tus in
      let fn = check_fn ~spec ~ctx in
      finalize
        (List.concat_map
           (fun tu ->
             List.concat_map
               (fun f -> fn (Prep.build f))
               (Ast.functions tu))
           tus)
  | Whole_program g -> fun ~spec tus -> g ~spec tus

let make ~name ~description ~metal_loc ~phase ~applied =
  { name; description; metal_loc; phase; run = run_of_phase phase; applied }

(* lift a checker module's [check_prep ~spec] (staged on the spec alone)
   into the registry signature *)
let fn staged : check_fn = fun ~spec ~ctx -> let _ = ctx in staged ~spec

let all : checker list =
  [
    make ~name:Buffer_mgmt.name
      ~description:"buffer allocation/free discipline (Section 6)"
      ~metal_loc:Buffer_mgmt.metal_loc
      ~phase:
        (Per_function
           {
             check_fn = fn Buffer_mgmt.check_prep;
             finalize = Fun.id;
             product = Buffer_mgmt.product;
           })
      ~applied:Buffer_mgmt.applied;
    make ~name:Msg_length.name
      ~description:"message length vs has-data consistency (Section 5)"
      ~metal_loc:Msg_length.metal_loc
      ~phase:
        (Per_function
           {
             check_fn = fn Msg_length.check_prep;
             finalize = Fun.id;
             product = Msg_length.product;
           })
      ~applied:Msg_length.applied;
    make ~name:Lane_checker.name
      ~description:"per-lane send allowances, inter-procedural (Section 7)"
      ~metal_loc:Lane_checker.metal_loc
      ~phase:
        (Whole_program (fun ~spec tus -> Lane_checker.run ~spec tus))
      ~applied:Lane_checker.applied;
    make ~name:Buffer_race.name
      ~description:"data-buffer fill synchronisation (Section 4)"
      ~metal_loc:Buffer_race.metal_loc
      ~phase:
        (Per_function
           {
             check_fn = fn Buffer_race.check_prep;
             finalize = Fun.id;
             product = Buffer_race.product;
           })
      ~applied:Buffer_race.applied;
    make ~name:Alloc_check.name
      ~description:"allocation failure checked before use (Section 9)"
      ~metal_loc:Alloc_check.metal_loc
      ~phase:
        (Per_function
           {
             check_fn = fn Alloc_check.check_prep;
             finalize = Fun.id;
             product = Alloc_check.product;
           })
      ~applied:Alloc_check.applied;
    make ~name:Dir_entry.name
      ~description:"directory entry load/writeback discipline (Section 9)"
      ~metal_loc:Dir_entry.metal_loc
      ~phase:
        (Per_function
           {
             check_fn = fn (fun ~spec -> Dir_entry.check_prep ?nak_pruning:None ~spec);
             finalize = Fun.id;
             product = (fun ~spec -> Dir_entry.product ~spec ());
           })
      ~applied:Dir_entry.applied;
    make ~name:Send_wait.name
      ~description:"synchronous send/wait pairing (Section 9)"
      ~metal_loc:Send_wait.metal_loc
      ~phase:
        (Per_function
           {
             check_fn = fn Send_wait.check_prep;
             finalize = Fun.id;
             product = Send_wait.product;
           })
      ~applied:Send_wait.applied;
    make ~name:Exec_restrict.name
      ~description:"handler execution restrictions and hooks (Section 8)"
      ~metal_loc:Exec_restrict.metal_loc
      ~phase:
        (Per_function
           {
             check_fn = fn Exec_restrict.check_prep;
             finalize = Diag.normalize;
             product = Exec_restrict.product;
           })
      ~applied:Exec_restrict.applied;
    make ~name:No_float.name
      ~description:"no floating point in protocol code (Section 8)"
      ~metal_loc:No_float.metal_loc
      ~phase:
        (Per_function
           {
             check_fn = fn No_float.check_prep;
             finalize = Diag.normalize;
             product = No_float.product;
           })
      ~applied:No_float.applied;
  ]

let find name = List.find_opt (fun c -> String.equal c.name name) all

let names = List.map (fun c -> c.name) all

(** Run every checker on one protocol. *)
let run_all ~spec (tus : Ast.tunit list) : (string * Diag.t list) list =
  List.map (fun c -> (c.name, c.run ~spec tus)) all

(** Run every checker on one protocol, building each function's [Prep]
    exactly once and sharing it across all per-function checkers — the
    fused sequential driver.  Per-checker results accumulate in source
    order, so the output is exactly [run_all]'s.

    Each (checker, function) pair runs behind a fault barrier: an
    exception is converted into a Warning-severity ["internal"]
    diagnostic plus a degraded flow-insensitive retry, and the run
    completes — a non-empty fault collection appends one extra
    [("internal", _)] entry to the result list. *)
let run_all_fused ~spec (tus : Ast.tunit list) :
    (string * Diag.t list) list =
  let ctx = make_ctx tus in
  let faults = ref [] in
  let fault ~loc ~func msg =
    faults :=
      Diag.make ~severity:Diag.Warning ~checker:"internal" ~loc ~func msg
      :: !faults
  in
  let staged =
    List.map
      (fun c ->
        match c.phase with
        | Per_function { check_fn; finalize; _ } ->
          `Pf (c.name, check_fn ~spec ~ctx, finalize, ref [])
        | Whole_program g -> `Wp g)
      all
  in
  let run_one name fn prep (f : Ast.func) =
    try fn prep
    with exn ->
      fault ~loc:f.Ast.f_loc ~func:f.Ast.f_name
        (Printf.sprintf
           "checker %s failed (%s); a degraded flow-insensitive pass \
            was substituted"
           name (Engine.describe_fault exn));
      (try Engine.with_degraded (fun () -> fn prep) with _ -> [])
  in
  List.iter
    (fun tu ->
      List.iter
        (fun f ->
          match Prep.build f with
          | exception exn ->
            fault ~loc:f.Ast.f_loc ~func:f.Ast.f_name
              (Printf.sprintf
                 "function could not be prepared (%s); all checkers \
                  skipped for this function"
                 (Engine.describe_fault exn))
          | prep ->
            List.iter
              (function
                | `Pf (name, fn, _, acc) -> acc := run_one name fn prep f :: !acc
                | `Wp _ -> ())
              staged)
        (Ast.functions tu))
    tus;
  let entries =
    List.map2
      (fun c st ->
        match st with
        | `Pf (_, _, finalize, acc) ->
          (c.name, finalize (List.concat (List.rev !acc)))
        | `Wp g -> (
          match g ~spec tus with
          | slice -> (c.name, slice)
          | exception exn ->
            fault ~loc:Loc.none ~func:"<whole-program>"
              (Printf.sprintf
                 "whole-program checker %s failed (%s); a degraded \
                  flow-insensitive pass was substituted"
                 c.name (Engine.describe_fault exn));
            ( c.name,
              try Engine.with_degraded (fun () -> g ~spec tus)
              with _ -> [] )))
      all staged
  in
  match !faults with
  | [] -> entries
  | fs -> entries @ [ ("internal", Diag.normalize fs) ]

(* A per-function checker staged for the product driver. *)
type staged_pf = {
  s_name : string;
  s_fn : Prep.t -> Diag.t list;
  s_finalize : Diag.t list -> Diag.t list;
  s_machine : Engine.pmachine option;
  s_acc : Diag.t list list ref;
}

(** [run_all_fused] with the per-checker traversals replaced by one
    product-automaton walk per function.  The scan only detects: a
    machine flagged dirty (it could emit on this function) re-runs
    through its ordinary per-checker traversal, whose output — witnesses
    included — is authoritative; a clean machine's result is [] by
    construction.  Checkers without a machine (the pure AST walkers)
    always run directly; they are linear single passes already.

    Containment (budgets, degraded mode, fault injection) delegates to
    [run_all_fused] wholesale so those paths keep their exact
    per-checker semantics.  A scan that overflows ([Product_overflow])
    or crashes falls back to re-running every machine on that function —
    same output, no walk saved. *)
let run_all_product ~spec (tus : Ast.tunit list) :
    (string * Diag.t list) list =
  if Engine.containment_active () then run_all_fused ~spec tus
  else begin
    let ctx = make_ctx tus in
    let faults = ref [] in
    let fault ~loc ~func msg =
      faults :=
        Diag.make ~severity:Diag.Warning ~checker:"internal" ~loc ~func msg
        :: !faults
    in
    let staged =
      List.map
        (fun c ->
          match c.phase with
          | Per_function { check_fn; finalize; product } ->
            `Pf
              {
                s_name = c.name;
                s_fn = check_fn ~spec ~ctx;
                s_finalize = finalize;
                s_machine = product ~spec;
                s_acc = ref [];
              }
          | Whole_program g -> `Wp g)
        all
    in
    let pfs =
      Array.of_list
        (List.filter_map (function `Pf p -> Some p | `Wp _ -> None) staged)
    in
    (* the packed machines, in [pfs] order, skipping machine-less
       checkers *)
    let machines =
      Array.of_list
        (List.filter_map
           (fun p -> p.s_machine)
           (Array.to_list pfs))
    in
    let run_one name fn prep (f : Ast.func) =
      try fn prep
      with exn ->
        fault ~loc:f.Ast.f_loc ~func:f.Ast.f_name
          (Printf.sprintf
             "checker %s failed (%s); a degraded flow-insensitive pass \
              was substituted"
             name (Engine.describe_fault exn));
        (try Engine.with_degraded (fun () -> fn prep) with _ -> [])
    in
    List.iter
      (fun tu ->
        List.iter
          (fun f ->
            match Prep.build f with
            | exception exn ->
              fault ~loc:f.Ast.f_loc ~func:f.Ast.f_name
                (Printf.sprintf
                   "function could not be prepared (%s); all checkers \
                    skipped for this function"
                   (Engine.describe_fault exn))
            | prep ->
              let dirty =
                if Array.length machines = 0 then [||]
                else
                  try Engine.product_scan prep machines
                  with _ ->
                    (* overflow or a machine crash: rerun everything;
                       the guarded per-checker path reproduces (and
                       contains) any crash *)
                    Array.map (fun _ -> true) machines
              in
              let mi = ref 0 in
              Array.iter
                (fun p ->
                  let rerun =
                    match p.s_machine with
                    | None -> true
                    | Some _ ->
                      let d = dirty.(!mi) in
                      incr mi;
                      d
                  in
                  if rerun then
                    p.s_acc := run_one p.s_name p.s_fn prep f :: !(p.s_acc))
                pfs)
          (Ast.functions tu))
      tus;
    let entries =
      List.map2
        (fun c st ->
          match st with
          | `Pf p -> (c.name, p.s_finalize (List.concat (List.rev !(p.s_acc))))
          | `Wp g -> (
            match g ~spec tus with
            | slice -> (c.name, slice)
            | exception exn ->
              fault ~loc:Loc.none ~func:"<whole-program>"
                (Printf.sprintf
                   "whole-program checker %s failed (%s); a degraded \
                    flow-insensitive pass was substituted"
                   c.name (Engine.describe_fault exn));
              ( c.name,
                try Engine.with_degraded (fun () -> g ~spec tus)
                with _ -> [] )))
        all staged
    in
    match !faults with
    | [] -> entries
    | fs -> entries @ [ ("internal", Diag.normalize fs) ]
  end
