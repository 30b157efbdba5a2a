(** Loading metal specs as checkers.

    A spec is parsed ({!Mparse}), resolved and checked ({!Mir}), lowered
    to an [int Sm.t] ({!lower}) and wrapped as a per-function
    {!Registry.checker} ({!Registry.of_sm}), so [mcheck --metal] runs it
    through the same kernel, scheduler and cache as the built-in
    checkers.  Rule actions are [Sm.err ~checker:name] then the outcome,
    exactly {!Mdsl.to_sm}'s, and state ids render back to their metal
    names, so diagnostics — messages, locations, witnesses — are
    byte-identical to the {!Mdsl} interpreter's; the seventh Mcfuzz
    oracle holds the two to that. *)

(** Each state's rules are its own branches, then the [all] branches, in
    priority order, one single-branch rule per alternation arm: the
    first arm to match fires, as in the interpreter's alternation. *)
let lower (ir : Mir.t) : int Sm.t =
  let name = ir.Mir.ir_name in
  let rules (r : Mir.rule) : int Sm.rule list =
    let outcome =
      match r.Mir.r_target with
      | Mir.Stay -> Sm.Stay
      | Mir.Stop -> Sm.Stop
      | Mir.Goto s -> Sm.Goto s
    in
    let action =
      match r.Mir.r_err with
      | None -> fun _ -> outcome
      | Some msg ->
        fun ctx ->
          Sm.err ~checker:name ctx "%s" msg;
          outcome
    in
    List.map
      (fun (b : Mir.branch) ->
        Sm.rule (Pattern.of_branch (b.Mir.b_expr, b.Mir.b_decls)) action)
      r.Mir.r_branches
  in
  let all = List.concat_map rules ir.Mir.ir_all in
  let per_state =
    Array.map (fun rs -> List.concat_map rules rs @ all) ir.Mir.ir_rules
  in
  Sm.make ~name
    ~start:(fun _ -> Some ir.Mir.ir_start)
    ~rules:(fun s -> per_state.(s))
    ~state_to_string:(fun s -> ir.Mir.ir_states.(s))
    ()

(** Compile a spec source to a checker.  Its cache key is the machine
    name plus a digest of [src], so two specs that share a name never
    share a cached result. *)
let compile ?file (src : string) : (Registry.checker, Mir.error list) result
    =
  match Mparse.parse ?file src with
  | exception Mdsl.Parse_error (e_msg, e_loc) ->
    Error [ { Mir.e_class = "parse error"; e_msg; e_loc } ]
  | surface -> (
    match Mir.of_surface surface with
    | Error es -> Error es
    | Ok ir ->
      let key =
        ir.Mir.ir_name ^ "@" ^ Digest.to_hex (Digest.string src)
      in
      Ok (Registry.of_sm ~key (lower ir)))

let load_file (path : string) : (Registry.checker, Mir.error list) result =
  compile ~file:path (In_channel.with_open_bin path In_channel.input_all)
