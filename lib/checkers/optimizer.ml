(** A meta-level optimisation pass — MC's third pillar.

    The paper's framing: MC can "check, transform, and optimize
    system-level operations"; the FLASH study only checks.  This pass
    demonstrates the optimise leg on the same invariant Figure 2 checks:
    [WAIT_FOR_DB_FULL] spins until the hardware finishes filling the data
    buffer, so a wait that executes only on paths that have *already*
    waited is pure overhead in the handler's critical path — exactly the
    kind of cycle-shaving FLASH implementors did by hand when they pushed
    waits "as late as possible".

    The analysis is the checker's state machine read in the opposite
    direction: walk every path tracking whether the buffer is already
    synchronised; a wait site whose every visit happens in the
    synchronised state is redundant and can be deleted.  Sites reachable
    in both states are kept (they are the synchronisation point of some
    path). *)

type sync = Unsynced | Synced

(** Wait sites that are redundant on every path through them. *)
let redundant_waits_prep (prep : Prep.t) : Loc.t list =
  (* per wait site: the set of states it was visited in *)
  let visits : (Loc.t, bool * bool) Hashtbl.t = Hashtbl.create 8 in
  let record loc state =
    let in_unsynced, in_synced =
      Option.value ~default:(false, false) (Hashtbl.find_opt visits loc)
    in
    match state with
    | Unsynced -> Hashtbl.replace visits loc (true, in_synced)
    | Synced -> Hashtbl.replace visits loc (in_unsynced, true)
  in
  let wait_pattern =
    Pattern.expr
      ~decls:[ ("a", Pattern.Scalar) ]
      (Flash_api.wait_for_db_full ^ "(a)")
  in
  let sm : sync Sm.t =
    Sm.make ~name:"redundant_wait"
      ~start:(fun _ -> Some Unsynced)
      ~rules:(fun state ->
        [
          Sm.rule wait_pattern (fun ctx ->
              record ctx.Sm.loc state;
              Sm.Goto Synced);
        ])
      ()
  in
  ignore (Engine.check_prep (Engine.machine sm) prep);
  Hashtbl.fold
    (fun loc (in_unsynced, in_synced) acc ->
      if in_synced && not in_unsynced then loc :: acc else acc)
    visits []
  |> List.sort Loc.compare

let redundant_waits (func : Ast.func) : Loc.t list =
  redundant_waits_prep (Prep.build func)

(* drop statements that are exactly a wait at one of [locs] *)
let remove_waits (locs : Loc.t list) (fn : Ast.func) : Ast.func =
  Ast.with_body fn
    (Fixer.map_stmt_list
       (fun s ->
         match s.Ast.sdesc with
         | Ast.Sexpr e -> (
           match (Ast.callee_name e, e.Ast.eloc) with
           | Some n, loc
             when String.equal n Flash_api.wait_for_db_full
                  && List.exists (Loc.equal loc) locs ->
             []
           | _ -> [ s ])
         | _ -> [ s ])
       fn.Ast.f_body)

type report = {
  functions_changed : int;
  waits_removed : int;
}

(** Optimise a whole program; returns the rewritten units and a count of
    what was removed.  Safety: the buffer-race checker accepts the output
    whenever it accepted the input, which the test suite asserts. *)
let optimize (tus : Ast.tunit list) : Ast.tunit list * report =
  let functions_changed = ref 0 in
  let waits_removed = ref 0 in
  let out =
    List.map
      (fun tu ->
        {
          tu with
          Ast.tu_globals =
            List.map
              (function
                | Ast.Gfunc fn ->
                  let locs = redundant_waits fn in
                  if locs = [] then Ast.Gfunc fn
                  else begin
                    incr functions_changed;
                    waits_removed := !waits_removed + List.length locs;
                    Ast.Gfunc (remove_waits locs fn)
                  end
                | g -> g)
              tu.Ast.tu_globals;
        })
      tus
  in
  (out, { functions_changed = !functions_changed;
          waits_removed = !waits_removed })
