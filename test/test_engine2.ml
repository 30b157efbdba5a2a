(** Engine equivalence property: on loop-free functions, the memoised
    path-sensitive engine must report exactly the diagnostic sites that a
    naive one-path-at-a-time replay reports.  This is the correctness
    argument for the (node, state) memoisation trick. *)

let t = Alcotest.test_case

(* a reference interpreter for state machines: replay one enumerated path
   explicitly, no memoisation *)
let replay_path (sm : 'st Sm.t) ~(at_exit : 'st Engine.exit_hook option)
    (cfg : Cfg.t) (func : Ast.func) (path : int list) (emit : Diag.t -> unit)
    : unit =
  let state = ref (Option.get (sm.Sm.start func)) in
  let stopped = ref false in
  let rec walk = function
    | [] -> ()
    | id :: rest ->
      if not !stopped then begin
        let node = Cfg.node cfg id in
        let exprs =
          match node.Cfg.kind with
          | Cfg.Stmt { Ast.sdesc = Ast.Sexpr e; _ } -> [ e ]
          | Cfg.Stmt { Ast.sdesc = Ast.Sdecl d; _ } ->
            Option.to_list d.Ast.v_init
          | Cfg.Branch e | Cfg.Switch e ->
            if sm.Sm.observe_branches then [ e ] else []
          | Cfg.Return (Some e) -> [ e ]
          | _ -> []
        in
        let events = List.concat_map Prep.subexprs_post exprs in
        List.iter
          (fun event ->
            if not !stopped then
              let rules = sm.Sm.rules !state @ sm.Sm.all in
              match
                List.find_map
                  (fun (r : 'st Sm.rule) ->
                    match Pattern.match_expr r.Sm.pattern event with
                    | Some b -> Some (r, b)
                    | None -> None)
                  rules
              with
              | None -> ()
              | Some (r, bindings) -> (
                let ctx =
                  {
                    Sm.func;
                    matched = event;
                    loc = event.Ast.eloc;
                    bindings;
                    trace = [];
                    emit;
                  }
                in
                match r.Sm.action ctx with
                | Sm.Stay -> ()
                | Sm.Goto next -> state := next
                | Sm.Stop -> stopped := true))
          events;
        (* branch refinement along the edge actually taken *)
        (if not !stopped then
           match (sm.Sm.branch, node.Cfg.kind, rest) with
           | Some refine, Cfg.Branch cond, next :: _ -> (
             match
               List.find_opt (fun (_, s) -> s = next) node.Cfg.succs
             with
             | Some (Cfg.True, _) -> state := refine !state cond true
             | Some (Cfg.False, _) -> state := refine !state cond false
             | _ -> ())
           | _ -> ());
        if (not !stopped) && id = cfg.Cfg.exit then
          Option.iter
            (fun hook ->
              let ctx =
                {
                  Sm.func;
                  matched = Ast.ident "return";
                  loc = node.Cfg.loc;
                  bindings = Binding.empty;
                  trace = [];
                  emit;
                }
              in
              hook ctx !state)
            at_exit;
        walk rest
      end
  in
  walk path

let site_set (diags : Diag.t list) =
  List.sort_uniq compare
    (List.map
       (fun (d : Diag.t) -> (d.Diag.loc, d.Diag.message, d.Diag.checker))
       diags)

(* a buffer-discipline-like machine exercising transitions, stop, branch
   refinement, and an exit hook *)
type st = Has | Hasnt

let test_sm : st Sm.t =
  Sm.make ~name:"eq"
    ~start:(fun _ -> Some Has)
    ~rules:(function
      | Has ->
        [
          Sm.goto_rule (Pattern.expr "FREE_DB()") Hasnt;
          Sm.stop_rule (Pattern.expr "give_up()");
        ]
      | Hasnt ->
        [
          Sm.err_rule ~checker:"eq" (Pattern.expr "FREE_DB()") "double free";
          Sm.rule (Pattern.expr "ALLOCATE_DB()") (fun _ -> Sm.Goto Has);
        ])
    ~branch:(fun st cond dir ->
      match Ast.callee_name cond with
      | Some "TRANSFERRED" -> if dir then Hasnt else st
      | _ -> st)
    ()

let exit_hook : st Engine.exit_hook =
 fun ctx st -> if st = Has then Sm.err ~checker:"eq" ctx "leak"

(* loop-free random handler bodies *)
let random_func seed : Ast.func =
  let rng = Rng.create ~seed in
  let g = Skeletons.gctx ~rng ~flavor:Skeletons.Bitvector in
  for _ = 1 to 3 do
    ignore (Skeletons.fresh_local g)
  done;
  let bug =
    Rng.choose rng
      [
        Skeletons.No_bug; Skeletons.Double_free; Skeletons.Buffer_leak;
        Skeletons.Buf_annot_fp; Skeletons.Buf_data_fp;
      ]
  in
  let body =
    match Rng.int rng 3 with
    | 0 ->
      Skeletons.dir_consult_body g ~bug ~pad:(Rng.range rng 1 5)
        ~branches:(Rng.range rng 0 3) ()
    | 1 ->
      Skeletons.writeback_body g ~bug ~pad:(Rng.range rng 1 5)
        ~branches:(Rng.range rng 0 3) ()
    | _ ->
      Skeletons.uncached_body g ~bug ~pad:(Rng.range rng 1 5)
        ~branches:(Rng.range rng 0 3) ~write:(Rng.bool rng) ()
  in
  let decls = List.rev_map (fun v -> Cb.decl_long v) g.Skeletons.locals in
  Cb.func "F" ([ Cb.decl_long "addr"; Cb.decl_long "src" ] @ decls @ body)

let prop_engine_equals_enumeration =
  QCheck.Test.make
    ~name:"memoised engine = naive path replay (loop-free functions)"
    ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let func = random_func seed in
      let cfg = Cfg.build func in
      if Cfg.back_edges cfg <> [] then true (* loop-free only *)
      else begin
        let engine_diags =
          Engine.check ~at_exit:exit_hook test_sm (`Func func)
        in
        let naive = ref [] in
        List.iter
          (fun path ->
            replay_path test_sm ~at_exit:(Some exit_hook) cfg func path
              (fun d -> naive := d :: !naive))
          (Paths.enumerate ~limit:20_000 cfg);
        site_set engine_diags = site_set !naive
      end)

(* a couple of targeted engine behaviours not covered elsewhere *)
let extra_cases =
  [
    t "observe_branches=false hides conditions" `Quick (fun () ->
        let sm : st Sm.t =
          Sm.make ~name:"blind" ~observe_branches:false
            ~start:(fun _ -> Some Has)
            ~rules:(fun _ ->
              [ Sm.err_rule ~checker:"blind" (Pattern.expr "evt()") "seen" ])
            ()
        in
        let tu =
          Parsed.ok
            (Frontend.parse ~file:"t.c"
               "void f(void) { if (evt()) { x = 1; } }")
        in
        Alcotest.(check int) "condition invisible" 0
          (List.length (Engine.check sm (`Unit tu))));
    t "switch conditions are observed" `Quick (fun () ->
        let sm : st Sm.t =
          Sm.make ~name:"sw"
            ~start:(fun _ -> Some Has)
            ~rules:(fun _ ->
              [ Sm.err_rule ~checker:"sw" (Pattern.expr "evt()") "seen" ])
            ()
        in
        let tu =
          Parsed.ok
            (Frontend.parse ~file:"t.c"
               "void f(void) { switch (evt()) { case 1: x = 1; break; } }")
        in
        Alcotest.(check int) "seen once" 1
          (List.length (Engine.check sm (`Unit tu))));
    t "events fire in evaluation order inside one statement" `Quick
      (fun () ->
        let order = ref [] in
        let sm : st Sm.t =
          Sm.make ~name:"ord"
            ~start:(fun _ -> Some Has)
            ~rules:(fun _ ->
              [
                Sm.rule
                  (Pattern.expr ~decls:[ ("k", Pattern.Constant) ] "g(k)")
                  (fun ctx ->
                    order :=
                      Pp.expr_to_string ctx.Sm.matched :: !order;
                    Sm.Stay);
              ])
            ()
        in
        let tu =
          Parsed.ok
            (Frontend.parse ~file:"t.c"
               "void f(void) { x = g(1) + h(g(2), g(3)); }")
        in
        ignore (Engine.check sm (`Unit tu));
        Alcotest.(check (list string)) "order"
          [ "g(1)"; "g(2)"; "g(3)" ]
          (List.rev !order));
  ]

let suite =
  ( "engine equivalence",
    QCheck_alcotest.to_alcotest prop_engine_equals_enumeration :: extra_cases
  )
