(** Inter-procedural summary framework tests, using a simple send-counting
    domain (a one-lane version of the lanes checker's). *)

let t = Alcotest.test_case

module Count = struct
  type t = { sum : int; peak : int }

  let zero = { sum = 0; peak = min_int }
  let seq a b = { sum = a.sum + b.sum; peak = max a.peak (a.sum + b.peak) }
  let join a b = { sum = max a.sum b.sum; peak = max a.peak b.peak }
  let equal a b = a.sum = b.sum && a.peak = b.peak
  let loop_safe t = t.sum <= 0
  let pp ppf t = Format.fprintf ppf "(sum=%d,peak=%d)" t.sum t.peak
end

module Client = struct
  module D = Count

  let event (_ : Ast.func) (node : Cfg.node) : Count.t =
    let c = ref Count.zero in
    let on e =
      Ast.iter_expr
        (fun e ->
          match Ast.callee_name e with
          | Some "send" -> c := Count.seq !c { Count.sum = 1; peak = 1 }
          | Some "wait_space" ->
            c := Count.seq !c { Count.sum = -1; peak = -1 }
          | _ -> ())
        e
    in
    (match node.Cfg.kind with
    | Cfg.Stmt { Ast.sdesc = Ast.Sexpr e; _ }
    | Cfg.Branch e | Cfg.Switch e
    | Cfg.Return (Some e) ->
      on e
    | _ -> ());
    !c
end

module A = Interproc.Make (Client)

let summarize src root =
  let tus = [ Parsed.ok (Frontend.parse ~file:"t.c" src) ] in
  let cg = Callgraph.build tus in
  let ctx = A.create cg in
  (ctx, A.summarize ctx root)

let peak s = (Option.get s).A.effect_.Count.peak

let cases =
  [
    t "straight-line counts" `Quick (fun () ->
        let _, s = summarize "void h(void) { send(); send(); }" "h" in
        Alcotest.(check int) "peak" 2 (peak s));
    t "branches take the max" `Quick (fun () ->
        let _, s =
          summarize
            "void h(void) { if (c) { send(); send(); } else { send(); } }"
            "h"
        in
        Alcotest.(check int) "peak" 2 (peak s));
    t "calls splice in the callee" `Quick (fun () ->
        let _, s =
          summarize
            "void helper(void) { send(); }\n\
             void h(void) { send(); helper(); }"
            "h"
        in
        Alcotest.(check int) "peak" 2 (peak s));
    t "calls through two levels" `Quick (fun () ->
        let _, s =
          summarize
            "void a(void) { send(); }\n\
             void b(void) { a(); a(); }\n\
             void h(void) { b(); }"
            "h"
        in
        Alcotest.(check int) "peak" 2 (peak s));
    t "space check resets the burst" `Quick (fun () ->
        let _, s =
          summarize "void h(void) { send(); wait_space(); send(); }" "h"
        in
        Alcotest.(check int) "peak" 1 (peak s));
    t "loop without sends is a fixed point" `Quick (fun () ->
        let ctx, s =
          summarize "void h(void) { while (c) { x = x + 1; } send(); }" "h"
        in
        Alcotest.(check int) "peak" 1 (peak s);
        Alcotest.(check int) "no loop warnings" 0
          (List.length (A.effectful_loops ctx)));
    t "loop with covered sends is a fixed point" `Quick (fun () ->
        let ctx, s =
          summarize
            "void h(void) { while (c) { wait_space(); send(); } }" "h"
        in
        ignore s;
        Alcotest.(check int) "no loop warnings" 0
          (List.length (A.effectful_loops ctx)));
    t "loop with bare sends is flagged" `Quick (fun () ->
        let ctx, _ =
          summarize "void h(void) { while (c) { send(); } }" "h" in
        Alcotest.(check bool) "warned" true (A.effectful_loops ctx <> []));
    t "recursion is detected" `Quick (fun () ->
        let ctx, _ =
          summarize
            "void h(void) { if (c) { h(); } send(); }" "h"
        in
        Alcotest.(check bool) "cycle seen" true (A.cycles ctx <> []));
    t "witness records the sites" `Quick (fun () ->
        let _, s =
          summarize "void h(void) { send(); wait_space(); send(); }" "h"
        in
        Alcotest.(check bool) "witness non-empty" true
          ((Option.get s).A.witness <> []));
    t "unknown root returns None" `Quick (fun () ->
        let _, s = summarize "void h(void) { }" "nope" in
        Alcotest.(check bool) "none" true (s = None));
  ]

let suite = ("interproc", cases)
