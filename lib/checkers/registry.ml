(** The nine FLASH checkers, with the metadata Table 7 reports, behind
    the two-phase checker interface, and the one checking kernel every
    driver — [run_all_product] here, the [Mcd] scheduler's units — runs. *)

type ctx = { callgraph : Callgraph.t Lazy.t }

let make_ctx tus = { callgraph = lazy (Callgraph.build tus) }

type check_fn = spec:Flash_api.spec -> ctx:ctx -> Prep.t -> Diag.t list
type check_global = spec:Flash_api.spec -> Ast.tunit list -> Diag.t list
type local = Lane_checker.local

let local_pass = Lane_checker.local

type link = spec:Flash_api.spec -> (string -> local option) -> Diag.t list

type phase =
  | Per_function of {
      check_fn : check_fn;
      finalize : Diag.t list -> Diag.t list;
      product : spec:Flash_api.spec -> Engine.pmachine option;
    }
  | Whole_program of check_global

type checker = {
  name : string;
  key : string;
  description : string;
  metal_loc : int;
  phase : phase;
  link : link option;
  applied : Ast.tunit list -> int;
}

(* The two kinds of per-function checker.  A state machine stages one
   {!Engine.machine} per staging, for its per-checker walk and for its
   packed product-scan machine alike; an AST walk has nothing to compose
   into the scan and its whole-program list is sorted and deduplicated. *)
let of_machine (machine : spec:Flash_api.spec -> _ Engine.machine) : phase =
  Per_function
    {
      check_fn = (fun ~spec ~ctx:_ -> Engine.check_prep (machine ~spec));
      finalize = Fun.id;
      product = (fun ~spec -> Some (Engine.pack (machine ~spec)));
    }

let of_walk (walk : spec:Flash_api.spec -> Ast.func -> Diag.t list) : phase =
  Per_function
    {
      check_fn = (fun ~spec ~ctx:_ prep -> walk ~spec prep.Prep.func);
      finalize = Diag.normalize;
      product = (fun ~spec:_ -> None);
    }

let make ~name ~description ~metal_loc ~phase ~applied =
  { name; key = name; description; metal_loc; phase; link = None; applied }

(* a whole-program checker: its run over units and its global pass over
   flow graphs, the first being the second over the units' graphs *)
let whole_program ~name ~description ~metal_loc ~run ~link ~applied =
  {
    (make ~name ~description ~metal_loc ~applied ~phase:(Whole_program run)) with
    link = Some link;
  }

let all : checker list =
  [
    make ~name:Buffer_mgmt.name
      ~description:"buffer allocation/free discipline (Section 6)"
      ~metal_loc:Buffer_mgmt.metal_loc
      ~phase:(of_machine Buffer_mgmt.machine)
      ~applied:Buffer_mgmt.applied;
    make ~name:Msg_length.name
      ~description:"message length vs has-data consistency (Section 5)"
      ~metal_loc:Msg_length.metal_loc
      ~phase:(of_machine Msg_length.machine)
      ~applied:Msg_length.applied;
    whole_program ~name:Lane_checker.name
      ~description:"per-lane send allowances, inter-procedural (Section 7)"
      ~metal_loc:Lane_checker.metal_loc
      ~run:(fun ~spec tus -> Lane_checker.run ~spec tus)
      ~link:(fun ~spec lookup -> Lane_checker.link ~spec lookup)
      ~applied:Lane_checker.applied;
    make ~name:Buffer_race.name
      ~description:"data-buffer fill synchronisation (Section 4)"
      ~metal_loc:Buffer_race.metal_loc
      ~phase:(of_machine Buffer_race.machine)
      ~applied:Buffer_race.applied;
    make ~name:Alloc_check.name
      ~description:"allocation failure checked before use (Section 9)"
      ~metal_loc:Alloc_check.metal_loc
      ~phase:(of_machine Alloc_check.machine)
      ~applied:Alloc_check.applied;
    make ~name:Dir_entry.name
      ~description:"directory entry load/writeback discipline (Section 9)"
      ~metal_loc:Dir_entry.metal_loc
      ~phase:(of_machine (fun ~spec -> Dir_entry.machine ~spec ()))
      ~applied:Dir_entry.applied;
    make ~name:Send_wait.name
      ~description:"synchronous send/wait pairing (Section 9)"
      ~metal_loc:Send_wait.metal_loc
      ~phase:(of_machine Send_wait.machine)
      ~applied:Send_wait.applied;
    make ~name:Exec_restrict.name
      ~description:"handler execution restrictions and hooks (Section 8)"
      ~metal_loc:Exec_restrict.metal_loc
      ~phase:(of_walk Exec_restrict.walk)
      ~applied:Exec_restrict.applied;
    make ~name:No_float.name
      ~description:"no floating point in protocol code (Section 8)"
      ~metal_loc:No_float.metal_loc
      ~phase:(of_walk No_float.walk)
      ~applied:No_float.applied;
  ]

let of_sm ~key (sm : _ Sm.t) : checker =
  {
    (make ~name:sm.Sm.name ~description:"loaded metal spec" ~metal_loc:0
       ~phase:(of_machine (fun ~spec:_ -> Engine.machine sm))
       ~applied:(fun _ -> 0))
    with
    key;
  }

let find name = List.find_opt (fun c -> String.equal c.name name) all

let names = List.map (fun c -> c.name) all

let run (c : checker) ~spec (tus : Ast.tunit list) : Diag.t list =
  match c.phase with
  | Per_function { check_fn; finalize; _ } ->
    let fn = check_fn ~spec ~ctx:(make_ctx tus) in
    finalize
      (List.concat_map
         (fun tu ->
           List.concat_map (fun f -> fn (Prep.build f)) (Ast.functions tu))
         tus)
  | Whole_program g -> g ~spec tus

let run_all ~spec (tus : Ast.tunit list) : (string * Diag.t list) list =
  List.map (fun c -> (c.name, run c ~spec tus)) all

(* ------------------------------------------------------------------ *)
(* The checking kernel                                                 *)
(* ------------------------------------------------------------------ *)

let is_per_function c =
  match c.phase with Per_function _ -> true | Whole_program _ -> false

(* the per-function checkers in registry order — the order of the slices
   a kernel call returns — with the machine-backed ones' packed machines
   gathered for the product scan *)
type staged_fns = {
  s_names : string array;
  s_fns : (Prep.t -> Diag.t list) array;
  s_machines : Engine.pmachine array;
  s_owner : int array;  (** [s_owner.(i)]: the checker of [s_machines.(i)] *)
}

(* the slice count is known before staging, so a function whose staging
   fails still gets one (empty) slice per per-function checker *)
type staged = { s_count : int; s_staged : staged_fns Lazy.t }

let stage_fns ~checkers ~spec ~ctx =
  let pfs =
    List.filter_map
      (fun c ->
        match c.phase with
        | Per_function { check_fn; product; _ } ->
          Some (c.name, check_fn ~spec ~ctx, product ~spec)
        | Whole_program _ -> None)
      checkers
  in
  let owned =
    List.concat
      (List.mapi
         (fun k (_, _, m) -> Option.fold ~none:[] ~some:(fun m -> [ (k, m) ]) m)
         pfs)
  in
  {
    s_names = Array.of_list (List.map (fun (name, _, _) -> name) pfs);
    s_fns = Array.of_list (List.map (fun (_, fn, _) -> fn) pfs);
    s_machines = Array.of_list (List.map snd owned);
    s_owner = Array.of_list (List.map fst owned);
  }

let stage ~checkers ~spec ~ctx =
  {
    s_count = List.length (List.filter is_per_function checkers);
    s_staged = lazy (stage_fns ~checkers ~spec ~ctx);
  }

let internal ~loc ~func msg =
  Diag.make ~severity:Diag.Warning ~checker:"internal" ~loc ~func msg

(* The fault barrier: [go] runs under [budget]; an exception (checker
   bug, injected fault, exhausted budget) becomes an ["internal"]
   diagnostic and a degraded flow-insensitive retry takes its place. *)
let guarded ~budget ~faults ~loc ~func ~what go =
  match Engine.with_budget budget go with
  | slice -> slice
  | exception exn ->
    faults :=
      internal ~loc ~func
        (Printf.sprintf
           "%s failed (%s); a degraded flow-insensitive pass was \
            substituted"
           what (Engine.describe_fault exn))
      :: !faults;
    (try Engine.with_degraded go with _ -> [])

let check_function (st : staged) ~budget (f : Ast.func) =
  match (Lazy.force st.s_staged, Prep.build f) with
  | exception exn ->
    ( Array.make st.s_count [],
      [
        internal ~loc:f.Ast.f_loc ~func:f.Ast.f_name
          (Printf.sprintf
             "function could not be prepared (%s); all checkers skipped \
              for this function"
             (Engine.describe_fault exn));
      ] )
  | st, prep ->
    let rerun = Array.make (Array.length st.s_fns) true in
    (* the scan only detects; a budget or containment context needs the
       exact per-checker semantics, so it sends every checker down the
       ordinary path.  An overflow or a machine crash reruns everything,
       and a real fault then surfaces through its own barrier. *)
    if budget = Engine.no_budget && not (Engine.containment_active ())
    then begin
      match Engine.product_scan prep st.s_machines with
      | dirty ->
        Array.iteri (fun i k -> if not dirty.(i) then rerun.(k) <- false)
          st.s_owner
      | exception _ -> ()
    end;
    let faults = ref [] in
    let slices =
      Array.mapi
        (fun k fn ->
          if not rerun.(k) then []
          else
            guarded ~budget ~faults ~loc:f.Ast.f_loc ~func:f.Ast.f_name
              ~what:("checker " ^ st.s_names.(k))
              (fun () -> fn prep))
        st.s_fns
    in
    (slices, List.rev !faults)

let check_whole_program ~budget (c : checker) ~spec lookup =
  match c.link with
  | None -> invalid_arg "Registry.check_whole_program"
  | Some link ->
    let faults = ref [] in
    let slice =
      guarded ~budget ~faults ~loc:Loc.none ~func:"<whole-program>"
        ~what:("whole-program checker " ^ c.name)
        (fun () -> link ~spec lookup)
    in
    (slice, !faults)

let assemble ~checkers ~per_function:batches ~whole_program ~faults =
  let k = ref 0 and wp = ref whole_program in
  let entries =
    List.map
      (fun c ->
        match (c.phase, !wp) with
        | Per_function { finalize; _ }, _ ->
          let i = !k in
          incr k;
          (c.name, finalize (List.concat_map (fun b -> b.(i)) batches))
        | Whole_program _, slice :: rest ->
          wp := rest;
          (c.name, slice)
        | Whole_program _, [] -> invalid_arg "Registry.assemble")
      checkers
  in
  match faults with
  | [] -> entries
  | fs -> entries @ [ ("internal", Diag.normalize fs) ]

let run_all_product ~spec (tus : Ast.tunit list) :
    (string * Diag.t list) list =
  let st = stage ~checkers:all ~spec ~ctx:(make_ctx tus) in
  let budget = Engine.no_budget in
  let batches =
    List.concat_map
      (fun tu -> List.map (check_function st ~budget) (Ast.functions tu))
      tus
  in
  let locals = Lane_checker.locals_of_units tus in
  let globals =
    List.map
      (fun c -> check_whole_program ~budget c ~spec locals)
      (List.filter (fun c -> not (is_per_function c)) all)
  in
  assemble ~checkers:all
    ~per_function:(List.map fst batches)
    ~whole_program:(List.map fst globals)
    ~faults:(List.concat_map snd batches @ List.concat_map snd globals)
