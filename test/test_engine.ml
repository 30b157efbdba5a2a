(** Path-sensitive engine tests: per-path state, stop, all-rules, branch
    refinement, exit hooks, and termination on loops. *)

let t = Alcotest.test_case

let func_of src =
  let tu = Parsed.ok (Frontend.parse ~file:"t.c" src) in
  match Ast.functions tu with
  | [ f ] -> f
  | _ -> Alcotest.fail "expected one function"

(* a tiny two-state machine: open() ... close(); close twice errs *)
type oc = Closed | Open

let oc_sm : oc Sm.t =
  Sm.make ~name:"oc"
    ~start:(fun _ -> Some Closed)
    ~rules:(function
      | Closed ->
        [
          Sm.goto_rule (Pattern.expr "open_it()") Open;
          Sm.err_rule ~checker:"oc" (Pattern.expr "close_it()")
            "close without open";
        ]
      | Open -> [ Sm.goto_rule (Pattern.expr "close_it()") Closed ])
    ()

let run sm ?at_exit src = Engine.check ?at_exit sm (`Func (func_of src))

let cases =
  [
    t "ok sequence is quiet" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (List.length (run oc_sm "void f(void) { open_it(); close_it(); }")));
    t "violation on one path only" `Quick (fun () ->
        let diags =
          run oc_sm
            "void f(void) { if (c) { open_it(); } close_it(); }"
        in
        Alcotest.(check int) "one diag" 1 (List.length diags));
    t "stop abandons the path" `Quick (fun () ->
        let stop_sm : oc Sm.t =
          Sm.make ~name:"stop"
            ~start:(fun _ -> Some Closed)
            ~rules:(function
              | Closed ->
                [
                  Sm.stop_rule (Pattern.expr "give_up()");
                  Sm.err_rule ~checker:"stop" (Pattern.expr "bad()") "bad";
                ]
              | Open -> [])
            ()
        in
        let diags =
          run stop_sm "void f(void) { give_up(); bad(); }"
        in
        Alcotest.(check int) "suppressed after stop" 0 (List.length diags));
    t "all-state rules fire in every state" `Quick (fun () ->
        let sm : oc Sm.t =
          Sm.make ~name:"all"
            ~start:(fun _ -> Some Closed)
            ~all:
              [
                Sm.rule (Pattern.expr "anywhere()") (fun ctx ->
                    Sm.err ~checker:"all" ctx "seen";
                    Sm.Stay);
              ]
            ~rules:(function
              | Closed -> [ Sm.goto_rule (Pattern.expr "open_it()") Open ]
              | Open -> [])
            ()
        in
        let diags =
          run sm "void f(void) { anywhere(); open_it(); anywhere(); }"
        in
        Alcotest.(check int) "both hits" 2 (List.length diags));
    t "state rules take precedence over all rules" `Quick (fun () ->
        let order = ref [] in
        let sm : oc Sm.t =
          Sm.make ~name:"prec"
            ~start:(fun _ -> Some Closed)
            ~all:
              [
                Sm.rule (Pattern.expr "evt()") (fun _ ->
                    order := "all" :: !order;
                    Sm.Stay);
              ]
            ~rules:(function
              | Closed ->
                [
                  Sm.rule (Pattern.expr "evt()") (fun _ ->
                      order := "state" :: !order;
                      Sm.Stay);
                ]
              | Open -> [])
            ()
        in
        ignore (run sm "void f(void) { evt(); }");
        Alcotest.(check (list string)) "only the state rule" [ "state" ]
          !order);
    t "terminates on loops" `Quick (fun () ->
        let diags =
          run oc_sm
            "void f(void) { while (c) { open_it(); close_it(); } }"
        in
        Alcotest.(check int) "no diags, no hang" 0 (List.length diags));
    t "loop that flips state is explored per state" `Quick (fun () ->
        (* opening inside a loop without closing: second iteration sees
           Open; memoisation still terminates *)
        let diags =
          run oc_sm "void f(void) { while (c) { close_it(); open_it(); } }"
        in
        (* first iteration: close in Closed state -> one error site *)
        Alcotest.(check int) "one site" 1 (List.length diags));
    t "at_exit sees the final state per path" `Quick (fun () ->
        let at_exit ctx (st : oc) =
          if st = Open then Sm.err ~checker:"oc" ctx "left open"
        in
        let diags =
          run oc_sm ~at_exit
            "void f(void) { open_it(); if (c) { close_it(); } }"
        in
        Alcotest.(check int) "leak on one path" 1 (List.length diags));
    t "branch hook refines by direction" `Quick (fun () ->
        let sm : oc Sm.t =
          Sm.make ~name:"br"
            ~start:(fun _ -> Some Closed)
            ~rules:(fun _ -> [])
            ~branch:(fun st cond dir ->
              match Ast.callee_name cond with
              | Some "became_open" -> if dir then Open else st
              | _ -> st)
            ()
        in
        let at_exit ctx (st : oc) =
          if st = Open then Sm.err ~checker:"br" ctx "open at exit"
        in
        let diags =
          Engine.check ~at_exit sm
            (`Func
               (func_of "void f(void) { if (became_open()) { x = 1; } }"))
        in
        Alcotest.(check int) "true branch flagged once" 1
          (List.length diags));
    t "events inside conditions are seen" `Quick (fun () ->
        let diags =
          run oc_sm "void f(void) { if (close_it()) { x = 1; } }"
        in
        Alcotest.(check int) "close in condition caught" 1
          (List.length diags));
    t "start=None skips the function" `Quick (fun () ->
        let sm : oc Sm.t =
          Sm.make ~name:"skip"
            ~start:(fun f -> if f.Ast.f_name = "f" then None else Some Closed)
            ~rules:(fun _ ->
              [ Sm.err_rule ~checker:"skip" (Pattern.expr "x()") "hit" ])
            ()
        in
        Alcotest.(check int) "skipped" 0
          (List.length (run sm "void f(void) { x(); }")));
    t "trace leads from entry to the error" `Quick (fun () ->
        let diags =
          run oc_sm "void f(void) { a = 1; b = 2; close_it(); }"
        in
        match diags with
        | [ d ] ->
          Alcotest.(check bool) "trace non-empty" true (d.Diag.trace <> [])
        | _ -> Alcotest.fail "expected exactly one diagnostic");
    t "diagnostics are deduplicated per site" `Quick (fun () ->
        (* the same close() is reachable along 4 paths; one report *)
        let diags =
          run oc_sm
            "void f(void) { if (a) { x = 1; } if (b) { y = 1; } close_it(); }"
        in
        Alcotest.(check int) "one site" 1 (List.length diags));
    t "engine stats count visits" `Quick (fun () ->
        let was = Mcobs.enabled () in
        Mcobs.set_enabled true;
        Mcobs.reset ();
        ignore
          (Engine.check oc_sm
             (`Func (func_of "void f(void) { open_it(); close_it(); }")));
        let snap = Mcobs.snapshot () in
        Mcobs.reset ();
        Mcobs.set_enabled was;
        let counter name =
          Option.value ~default:0 (List.assoc_opt name snap.Mcobs.counters)
        in
        Alcotest.(check bool) "visited nodes" true
          (counter "engine.nodes_visited" > 0);
        Alcotest.(check bool) "matched events" true
          (counter "engine.events_matched" >= 2));
  ]

let suite = ("engine", cases)
