(** The metal compiler's typed intermediate form.

    {!of_surface} lowers the located surface AST into resolved form —
    state names become dense integer ids, named patterns are inlined,
    pattern code is parsed into {!Pattern.t} branches with their
    wildcard declarations — and rejects bad programs with located,
    classified diagnostics instead of leaving them to fail (or worse,
    silently misbehave) at checking time.  The interpreter tolerates two
    of the defects found here: a transition to an undefined state simply
    never fires its rules, and a rule shadowed by an identical earlier
    pattern is dead weight.  The compiler makes both errors.

    Error classes ([e_class]):
    - [parse error] — a syntax error from the shared front end
    - [bad-pattern] — pattern code that does not parse, or a reference
      to an unknown named pattern
    - [bad-binding] — an unknown wildcard kind, a conflicting wildcard
      redeclaration, a duplicate [pat] name, or a wildcard applied as a
      function (binding-arity misuse: the interpreter would silently
      bind the callee)
    - [bad-action] — an action that is not [err("...")]
    - [unknown-state] — a transition to a state never defined
    - [duplicate-state] — a state section defined twice (the second is
      silently dead under the interpreter)
    - [unreachable-state] — a state no chain of transitions reaches
    - [overlapping-rules] — a later rule's pattern equal (modulo
      wildcard renaming) to an earlier one's in the same scope with a
      different effect, so it can never fire
    - [duplicate-transition] — same, with the identical effect
    - [no-states] — a machine with no states and no [all] rules *)

type error = { e_class : string; e_msg : string; e_loc : Loc.t }

let render_error (e : error) : string =
  if Loc.is_none e.e_loc then
    Printf.sprintf "metal %s: %s" e.e_class e.e_msg
  else
    Printf.sprintf "%s: metal %s: %s" (Loc.to_string e.e_loc) e.e_class
      e.e_msg

(** a rule's transition, with the state resolved *)
type target = Stay | Goto of int | Stop

type branch = { b_expr : Ast.expr; b_decls : Pattern.decl list }
(** one [Alt] branch of a rule's pattern — the granularity the lowered
    machine's rules work at *)

type rule = {
  r_branches : branch list;  (** in match order *)
  r_target : target;
  r_err : string option;
  r_loc : Loc.t;
}

type t = {
  ir_name : string;
  ir_states : string array;  (** state names; the index is the id *)
  ir_start : int;
  ir_rules : rule list array;  (** per state, in declaration order *)
  ir_all : rule list;
}

(* ------------------------------------------------------------------ *)
(* Pattern equality modulo wildcard renaming                           *)
(* ------------------------------------------------------------------ *)

(* Two branches are alpha-equal when their expressions coincide up to a
   kind-preserving bijection between their wildcard names: such patterns
   match exactly the same events, so in one scope the later of the two
   can never fire. *)
let branch_alpha_equal (b1 : branch) (b2 : branch) : bool =
  let fwd : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let bwd : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let wildcard decls n = List.assoc_opt n decls in
  let rec eq (p : Ast.expr) (q : Ast.expr) : bool =
    match (p.Ast.edesc, q.Ast.edesc) with
    | Ast.Ident a, Ast.Ident b -> (
      match (wildcard b1.b_decls a, wildcard b2.b_decls b) with
      | Some ka, Some kb -> (
        ka = kb
        &&
        match (Hashtbl.find_opt fwd a, Hashtbl.find_opt bwd b) with
        | None, None ->
          Hashtbl.add fwd a b;
          Hashtbl.add bwd b a;
          true
        | Some b', Some a' -> String.equal b' b && String.equal a' a
        | _ -> false)
      | None, None -> String.equal a b
      | _ -> false)
    | Ast.Ident a, _ when wildcard b1.b_decls a <> None -> false
    | _, Ast.Ident b when wildcard b2.b_decls b <> None -> false
    | Ast.Int_lit (a, _), Ast.Int_lit (c, _) -> Int64.equal a c
    | Ast.Float_lit (a, _), Ast.Float_lit (c, _) -> Float.equal a c
    | Ast.Str_lit a, Ast.Str_lit c -> String.equal a c
    | Ast.Char_lit a, Ast.Char_lit c -> Char.equal a c
    | Ast.Call (f, args), Ast.Call (g, brgs) ->
      List.length args = List.length brgs
      && eq f g
      && List.for_all2 eq args brgs
    | Ast.Unop (o, a), Ast.Unop (o', a') -> o = o' && eq a a'
    | Ast.Binop (o, a, b), Ast.Binop (o', a', b') ->
      o = o' && eq a a' && eq b b'
    | Ast.Assign (a, b), Ast.Assign (a', b') -> eq a a' && eq b b'
    | Ast.Op_assign (o, a, b), Ast.Op_assign (o', a', b') ->
      o = o' && eq a a' && eq b b'
    | Ast.Cond (a, b, c), Ast.Cond (a', b', c') ->
      eq a a' && eq b b' && eq c c'
    | Ast.Cast (t, a), Ast.Cast (t', a') -> Ctype.equal t t' && eq a a'
    | Ast.Field (a, f), Ast.Field (a', f') -> String.equal f f' && eq a a'
    | Ast.Arrow (a, f), Ast.Arrow (a', f') -> String.equal f f' && eq a a'
    | Ast.Index (a, b), Ast.Index (a', b') -> eq a a' && eq b b'
    | Ast.Comma (a, b), Ast.Comma (a', b') -> eq a a' && eq b b'
    | Ast.Sizeof_expr a, Ast.Sizeof_expr a' -> eq a a'
    | Ast.Sizeof_type t, Ast.Sizeof_type t' -> Ctype.equal t t'
    | _ -> false
  in
  eq b1.b_expr b2.b_expr

(* ------------------------------------------------------------------ *)
(* Lowering with semantic analysis                                     *)
(* ------------------------------------------------------------------ *)

let of_surface (s : Mparse.t) : (t, error list) result =
  let errors = ref [] in
  let err e_class e_loc fmt =
    Printf.ksprintf
      (fun e_msg -> errors := { e_class; e_msg; e_loc } :: !errors)
      fmt
  in
  (* state table: first occurrence wins an id, duplicates are errors *)
  let surface_states =
    List.filter_map
      (function
        | Mparse.I_state st when st.Mparse.s_name <> "all" -> Some st
        | _ -> None)
      s.Mparse.p_items
  in
  let has_all =
    List.exists
      (function
        | Mparse.I_state { Mparse.s_name = "all"; _ } -> true
        | _ -> false)
      s.Mparse.p_items
  in
  let state_names = ref [] in
  List.iter
    (fun (st : Mparse.state) ->
      if List.mem_assoc st.Mparse.s_name !state_names then
        err "duplicate-state" st.Mparse.s_name_loc
          "state %s is defined twice; the second definition would be \
           silently ignored"
          st.Mparse.s_name
      else
        state_names :=
          (st.Mparse.s_name, st.Mparse.s_name_loc) :: !state_names)
    surface_states;
  let state_names = List.rev !state_names in
  (* a machine of only [all:] rules gets the interpreter's vacuous
     start state; one with nothing at all is rejected *)
  let state_names =
    if state_names = [] && has_all then [ ("start", s.Mparse.p_name_loc) ]
    else state_names
  in
  if state_names = [] then
    err "no-states" s.Mparse.p_name_loc "%s defines no states"
      s.Mparse.p_name;
  let ir_states = Array.of_list (List.map fst state_names) in
  let state_locs = Array.of_list (List.map snd state_names) in
  let state_id name =
    let n = Array.length ir_states in
    let rec go i =
      if i >= n then None
      else if String.equal ir_states.(i) name then Some i
      else go (i + 1)
    in
    go 0
  in
  (* the incremental environments, exactly as the interpreter builds
     them: a pattern only sees the decls and pats above it *)
  let decls : Pattern.decl list ref = ref [] in
  let named : (string * branch list) list ref = ref [] in
  let kind_of d =
    match Mdsl.kind_of_string d.Mparse.d_kind with
    | k -> Some k
    | exception Mdsl.Parse_error (msg, _) ->
      err "bad-binding" d.Mparse.d_kind_loc "%s" msg;
      None
  in
  (* binding-arity misuse: a declared wildcard in callee position would
     make the interpreter bind the *callee*, which is never what the
     spec author meant *)
  let rec check_arity ~ds ~loc (e : Ast.expr) =
    (match e.Ast.edesc with
    | Ast.Call ({ Ast.edesc = Ast.Ident f; _ }, args)
      when List.mem_assoc f ds ->
      err "bad-binding" loc
        "wildcard %s is applied to %d argument%s; a wildcard matches an \
         expression, not a function name"
        f (List.length args)
        (if List.length args = 1 then "" else "s")
    | _ -> ());
    match e.Ast.edesc with
    | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
    | Ast.Ident _ | Ast.Sizeof_type _ ->
      ()
    | Ast.Call (f, args) ->
      check_arity ~ds ~loc f;
      List.iter (check_arity ~ds ~loc) args
    | Ast.Unop (_, a)
    | Ast.Cast (_, a)
    | Ast.Field (a, _)
    | Ast.Arrow (a, _)
    | Ast.Sizeof_expr a ->
      check_arity ~ds ~loc a
    | Ast.Binop (_, a, b)
    | Ast.Assign (a, b)
    | Ast.Op_assign (_, a, b)
    | Ast.Index (a, b)
    | Ast.Comma (a, b) ->
      check_arity ~ds ~loc a;
      check_arity ~ds ~loc b
    | Ast.Cond (a, b, c) ->
      check_arity ~ds ~loc a;
      check_arity ~ds ~loc b;
      check_arity ~ds ~loc c
  in
  let rec resolve_pattern (p : Mparse.pattern) : branch list =
    match p with
    | Mparse.P_alt ps -> List.concat_map resolve_pattern ps
    | Mparse.P_name (name, loc) -> (
      match List.assoc_opt name !named with
      | Some bs -> bs
      | None ->
        err "bad-pattern" loc "unknown pattern name %s" name;
        [])
    | Mparse.P_code (code, loc) -> (
      let code = String.trim code in
      let code =
        if String.length code > 0 && code.[String.length code - 1] = ';'
        then String.sub code 0 (String.length code - 1)
        else code
      in
      let ds = !decls in
      match Pattern.expr_located ~decls:ds code with
      | Error (msg, line, col) ->
        err "bad-pattern" (Mdsl.rebase_snippet_pos loc ~line ~col) "%s" msg;
        []
      | Ok pat ->
        List.map
          (fun (b_expr, b_decls) ->
            check_arity ~ds:b_decls ~loc b_expr;
            { b_expr; b_decls })
          (Pattern.branches pat))
  in
  let resolve_rule (r : Mparse.rule) : rule =
    let r_branches = resolve_pattern r.Mparse.r_pattern in
    let r_target =
      match r.Mparse.r_target.Mparse.t_goto with
      | None -> Stay
      | Some ("stop", _) -> Stop
      | Some (name, loc) -> (
        match state_id name with
        | Some id -> Goto id
        | None ->
          err "unknown-state" loc
            "transition to unknown state %s; under the interpreter its \
             rules would silently never fire"
            name;
          Stay)
    in
    let r_err =
      match r.Mparse.r_target.Mparse.t_action with
      | None -> None
      | Some (code, loc) -> (
        match Mdsl.parse_action code with
        | a -> a
        | exception Mdsl.Parse_error (msg, _) ->
          err "bad-action" loc "%s" msg;
          None)
    in
    { r_branches; r_target; r_err; r_loc = r.Mparse.r_loc }
  in
  let ir_rules = Array.make (Array.length ir_states) [] in
  let seen_state : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let ir_all = ref [] in
  List.iter
    (function
      | Mparse.I_decl ds ->
        List.iter
          (fun (d : Mparse.decl) ->
            match kind_of d with
            | None -> ()
            | Some kind -> (
              match List.assoc_opt d.Mparse.d_name !decls with
              | Some prior when prior <> kind ->
                err "bad-binding" d.Mparse.d_name_loc
                  "wildcard %s redeclared with a different kind"
                  d.Mparse.d_name
              | Some _ -> ()
              | None -> decls := !decls @ [ (d.Mparse.d_name, kind) ]))
          ds
      | Mparse.I_pat np ->
        let bs = resolve_pattern np.Mparse.n_pattern in
        if List.mem_assoc np.Mparse.n_name !named then
          err "bad-binding" np.Mparse.n_name_loc
            "pattern %s is defined twice" np.Mparse.n_name
        else named := (np.Mparse.n_name, bs) :: !named
      | Mparse.I_state st ->
        let rules = List.map resolve_rule st.Mparse.s_rules in
        if String.equal st.Mparse.s_name "all" then
          (* several all: sections concatenate, like the interpreter *)
          ir_all := !ir_all @ rules
        else if not (Hashtbl.mem seen_state st.Mparse.s_name) then begin
          Hashtbl.replace seen_state st.Mparse.s_name ();
          match state_id st.Mparse.s_name with
          | Some id -> ir_rules.(id) <- rules
          | None -> ()
        end)
    s.Mparse.p_items;
  let ir_all = !ir_all in
  (* dead rules: within one scope (a state's own rule list, or the [all]
     list — not across the two, since a state rule shadowing an [all]
     rule is the legitimate override idiom), a branch alpha-equal to an
     earlier one can never fire *)
  let effect_of (r : rule) = (r.r_target, r.r_err) in
  let check_scope (scope : string) (rules : rule list) =
    let earlier : (branch * rule) list ref = ref [] in
    List.iter
      (fun r ->
        List.iter
          (fun b ->
            (match
               List.find_opt
                 (fun (b', _) -> branch_alpha_equal b' b)
                 !earlier
             with
            | Some (_, r') when r' != r ->
              let cls, how =
                if effect_of r' = effect_of r then
                  ("duplicate-transition", "the same effect")
                else ("overlapping-rules", "a different effect")
              in
              err cls r.r_loc
                "rule in %s repeats an earlier rule's pattern %s (with \
                 %s); it can never fire"
                scope
                (Pp.expr_to_string b.b_expr)
                how
            | Some _ ->
              (* duplicate branch within one rule's alternation *)
              err "duplicate-transition" r.r_loc
                "pattern %s is repeated within one rule's alternation"
                (Pp.expr_to_string b.b_expr)
            | None -> ());
            earlier := !earlier @ [ (b, r) ])
          r.r_branches)
      rules
  in
  Array.iteri
    (fun id rules ->
      check_scope (Printf.sprintf "state %s" ir_states.(id)) rules)
    ir_rules;
  check_scope "all" ir_all;
  (* reachability: from the start state through rule transitions; [all]
     targets are reachable from every state *)
  let n = Array.length ir_states in
  if n > 0 then begin
    let reachable = Array.make n false in
    let rec mark id =
      if not reachable.(id) then begin
        reachable.(id) <- true;
        List.iter
          (fun r -> match r.r_target with Goto t -> mark t | _ -> ())
          (ir_rules.(id) @ ir_all)
      end
    in
    mark 0;
    Array.iteri
      (fun id ok ->
        if not ok then
          err "unreachable-state" state_locs.(id)
            "state %s is unreachable from the start state" ir_states.(id))
      reachable
  end;
  match !errors with
  | [] ->
    Ok
      {
        ir_name = s.Mparse.p_name;
        ir_states;
        ir_start = 0;
        ir_rules;
        ir_all;
      }
  | es ->
    Error
      (List.stable_sort
         (fun a b -> Loc.compare a.e_loc b.e_loc)
         (List.rev es))
