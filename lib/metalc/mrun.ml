(** Running metal checkers: compiled tables or the interpreter.

    A {!t} is a loaded metal checker in either back end.  [Compiled]
    carries the codegen tables lowered onto an [int Sm.t] whose
    per-state rule lists are precomputed lists of single-branch rules.
    Each check call stages it as one {!Engine.machine}, whose memo
    builds each state's root-dispatch index once per call rather than
    once per checked function.  Both back ends run the same engine
    traversal over the same {!Prep.t} events with the same action
    semantics
    ([Sm.err ~checker:name] then the outcome, exactly
    {!Mdsl.to_sm}'s), and compiled state ids render back to their metal
    names, so diagnostics — messages, locations, witnesses — are
    byte-identical; the seventh Mcfuzz oracle holds the two to that.
    Production ({!load_file}, [mcheck --metal]) always compiles; the
    interpreter ({!interp}) is the reference the tests compare against. *)

type compiled = { c_gen : Mcodegen.t; c_sm : int Sm.t }

type t = Interp of string Sm.t | Compiled of compiled

let name = function
  | Interp sm -> sm.Sm.name
  | Compiled c -> c.c_gen.Mcodegen.g_name

(* ------------------------------------------------------------------ *)
(* Lowering tables onto the engine                                     *)
(* ------------------------------------------------------------------ *)

let sm_of_tables (g : Mcodegen.t) : int Sm.t =
  let msgs = g.Mcodegen.g_msgs in
  let branch_rule (i : int) : int Sm.rule =
    let next = g.Mcodegen.g_next.(i) in
    let err =
      let e = g.Mcodegen.g_err.(i) in
      if e >= 0 then Some msgs.(e) else None
    in
    Sm.rule g.Mcodegen.g_pats.(i) (fun ctx ->
        (match err with
        | Some msg -> Sm.err ~checker:g.Mcodegen.g_name ctx "%s" msg
        | None -> ());
        if next = Mcodegen.stay then Sm.Stay
        else if next = Mcodegen.stop then Sm.Stop
        else Sm.Goto next)
  in
  (* per-state rule lists, precomputed once: state rules' branches then
     the [all] branches, already in priority order in the tables *)
  let per_state =
    Array.map
      (fun ids -> List.map branch_rule (Array.to_list ids))
      g.Mcodegen.g_state_branches
  in
  Sm.make ~name:g.Mcodegen.g_name
    ~start:(fun _ -> Some g.Mcodegen.g_start)
    ~rules:(fun s -> per_state.(s))
    ~state_to_string:(fun s -> g.Mcodegen.g_states.(s))
    ()

let of_tables (g : Mcodegen.t) : t =
  Compiled { c_gen = g; c_sm = sm_of_tables g }

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let compile ?file (src : string) : (t, Mir.error list) result =
  match Mparse.parse ?file src with
  | exception Mdsl.Parse_error (e_msg, e_loc) ->
    Error [ { Mir.e_class = "parse error"; e_msg; e_loc } ]
  | surface -> (
    match Mir.of_surface surface with
    | Error es -> Error es
    | Ok ir -> Ok (of_tables (Mcodegen.of_ir ir)))

let interp ?file (src : string) : (t, Mir.error list) result =
  match Mdsl.load ?file src with
  | sm -> Ok (Interp sm)
  | exception Mdsl.Parse_error (e_msg, e_loc) ->
    Error [ { Mir.e_class = "parse error"; e_msg; e_loc } ]

(** the production loader: a spec file, compiled *)
let load_file (path : string) : (t, Mir.error list) result =
  compile ~file:path (In_channel.with_open_bin path In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

(* Stage [t] for one call: the returned closure checks prepared
   functions through one machine value, so its dispatch memo lives as
   long as the call and never crosses domains. *)
let stage (t : t) : Prep.t -> Diag.t list =
  match t with
  | Interp sm -> Engine.check_prep (Engine.machine sm)
  | Compiled c -> Engine.check_prep (Engine.machine c.c_sm)

let check (t : t) (target : Engine.target) : Diag.t list =
  match t with
  | Interp sm -> Engine.check sm target
  | Compiled c -> Engine.check c.c_sm target

(** Run several machines over a program, building one {!Prep.t} per
    function and sharing it across all of them — the metal analogue of
    the built-in checkers' [Registry.check_function] kernel.  Results
    are per machine in input order, each identical to what
    [check m (`Program tus)] would return (the engine normalizes per
    function, so sharing preps cannot change the output). *)
let check_program_fused (ms : t list) (tus : Ast.tunit list) :
    Diag.t list list =
  match ms with
  | [] -> []
  | _ ->
    let fns = List.map stage ms in
    let accs = Array.make (List.length ms) [] in
    List.iter
      (fun tu ->
        List.iter
          (fun f ->
            let prep = Prep.build f in
            List.iteri
              (fun i fn -> accs.(i) <- fn prep :: accs.(i))
              fns)
          (Ast.functions tu))
      tus;
    Array.to_list (Array.map (fun l -> List.concat (List.rev l)) accs)
