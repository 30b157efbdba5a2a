(** Inter-procedural summary framework tests, using a simple send-counting
    domain (a one-lane version of the lanes checker's).  Every case runs
    the two passes apart: the local pass over each function, then the
    global pass over a marshalled copy of the flow graphs, as a cache
    hands them over. *)

let t = Alcotest.test_case

module Count = struct
  type t = { sum : int; peak : int }

  let zero = { sum = 0; peak = min_int }
  let seq a b =
    {
      sum = a.sum + b.sum;
      peak = (if b.peak = min_int then a.peak else max a.peak (a.sum + b.peak));
    }
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

let locals src =
  let tus = [ Parsed.ok (Frontend.parse ~file:"t.c" src) ] in
  let table = Hashtbl.create 8 in
  List.iter
    (fun f -> Hashtbl.replace table f.Ast.f_name (A.local f))
    (List.concat_map Ast.functions tus);
  (Marshal.from_string (Marshal.to_string table []) 0
    : (string, A.local) Hashtbl.t)

let summarize src root =
  let ctx = A.create (Hashtbl.find_opt (locals src)) in
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
    t "a CFG build error waits until its function is reached" `Quick
      (fun () ->
        let src = "void bad(void) { break; }\nvoid h(void) { send(); }" in
        let _, s = summarize src "h" in
        Alcotest.(check int) "unreached: peak" 1 (peak s);
        match summarize src "bad" with
        | exception Cfg.Build_error _ -> ()
        | _ -> Alcotest.fail "expected Cfg.Build_error");
    t "each name is looked up once" `Quick (fun () ->
        let table = locals "void a(void) { send(); }\nvoid h(void) { a(); a(); a(); }" in
        let asked = ref [] in
        let ctx =
          A.create (fun name ->
              asked := name :: !asked;
              Hashtbl.find_opt table name)
        in
        ignore (A.summarize ctx "h");
        ignore (A.find ctx "a");
        Alcotest.(check (list string)) "asked" [ "a"; "h"; "send" ]
          (List.sort compare !asked));
  ]

let suite = ("interproc", cases)
