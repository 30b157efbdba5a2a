(** Auto-repair tests: after fixing, the corresponding checker must be
    silent, and the rewritten source must still parse. *)

let t = Alcotest.test_case

let spec_for ?(procs = true) handlers : Flash_api.spec =
  let _ = procs in
  {
    Flash_api.p_name = "test";
    p_handlers =
      List.map
        (fun name ->
          {
            Flash_api.h_name = name;
            h_kind = Flash_api.Hw_handler;
            h_lane_allowance = [| 1; 1; 1; 1 |];
            h_no_stack = false;
          })
        handlers;
    p_free_funcs = [];
    p_use_funcs = [];
    p_cond_free_funcs = [];
  }

let exec = Checks.run Exec_restrict.name
let race = Checks.run Buffer_race.name
let buf = Checks.run Buffer_mgmt.name

let parse src =
  Parsed.ok (Frontend.parse_strings [ ("t.c", Prelude.text ^ src) ])

(* re-parse through the printer so the fix is a genuine source rewrite *)
let reparse (tus : Ast.tunit list) : Ast.tunit list =
  Parsed.ok
    (Frontend.parse_strings
       (List.map (fun tu -> (tu.Ast.tu_file, Pp.tunit_to_string tu)) tus))

let cases =
  [
    t "missing hooks are inserted" `Quick (fun () ->
        let spec = spec_for [ "H" ] in
        let tus = parse "void H(void) { x = 1; }\nvoid util(void) { y = 2; }" in
        Alcotest.(check bool) "dirty before" true
          (exec ~spec tus <> []);
        let fixed = reparse (List.map (Fixer.fix_hooks ~spec) tus) in
        Alcotest.(check int) "clean after" 0
          (List.length (exec ~spec fixed)));
    t "hook fix keeps existing good prologues" `Quick (fun () ->
        let spec = spec_for [ "H" ] in
        let tus =
          parse "void H(void) { HANDLER_DEFS(); SIM_HANDLER_HOOK(); x = 1; }"
        in
        let fixed = List.map (Fixer.fix_hooks ~spec) tus in
        (* no duplicate prologue statements *)
        let f =
          Option.get (Ast.find_function (List.hd fixed) "H")
        in
        Alcotest.(check int) "body length unchanged" 3
          (List.length f.Ast.f_body));
    t "unsynchronised reads get a wait" `Quick (fun () ->
        let spec = spec_for [ "H" ] in
        let tus =
          parse
            "void H(void) { long a; a = MISCBUS_READ_DB(a, 0); FREE_DB(); }"
        in
        let diags = race ~spec tus in
        Alcotest.(check int) "one race before" 1 (List.length diags);
        let fixed =
          reparse (List.map (Fixer.fix_races ~diags) tus)
        in
        Alcotest.(check int) "clean after" 0
          (List.length (race ~spec fixed)));
    t "race fix targets only the flagged statement" `Quick (fun () ->
        let spec = spec_for [ "H" ] in
        let tus =
          parse
            "void H(void) { long a; if (a) { WAIT_FOR_DB_FULL(a); } a = \
             MISCBUS_READ_DB(a, 4); FREE_DB(); }"
        in
        let diags = race ~spec tus in
        let fixed = reparse (List.map (Fixer.fix_races ~diags) tus) in
        Alcotest.(check int) "clean after" 0
          (List.length (race ~spec fixed));
        (* exactly one wait was added *)
        let count =
          Cutil.count_calls fixed [ Flash_api.wait_for_db_full ]
        in
        Alcotest.(check int) "waits" 2 count);
    t "leaking return gets a free" `Quick (fun () ->
        let spec = spec_for [ "H" ] in
        let tus =
          parse
            "void H(void) { if (c) { return; } NI_SEND(MSG_NAK, F_NODATA, \
             0, W_NOWAIT, 1, 0); FREE_DB(); }"
        in
        let diags = buf ~spec tus in
        Alcotest.(check int) "one leak before" 1 (List.length diags);
        let fixed = reparse (List.map (Fixer.fix_leaks ~spec ~diags) tus) in
        Alcotest.(check int) "clean after" 0
          (List.length (buf ~spec fixed)));
    t "leak on the fall-off-the-end path" `Quick (fun () ->
        let spec = spec_for [ "H" ] in
        let tus = parse "void H(void) { x = 1; }" in
        let diags = buf ~spec tus in
        let fixed = reparse (List.map (Fixer.fix_leaks ~spec ~diags) tus) in
        Alcotest.(check int) "clean after" 0
          (List.length (buf ~spec fixed)));
    t "the golden buggy leak is repairable" `Quick (fun () ->
        let tus = Golden.program Golden.Buggy in
        let spec = Golden.spec in
        let diags = buf ~spec tus in
        let fixed =
          reparse (List.map (Fixer.fix_leaks ~spec ~diags) tus)
        in
        let remaining = buf ~spec fixed in
        (* the NIInval leak is gone; the NILocalGet double free remains,
           deliberately (Section 11) *)
        Alcotest.(check int) "one report left" 1 (List.length remaining);
        Alcotest.(check string) "it is the double free" "NILocalGet"
          (List.hd remaining).Diag.func);
    t "corpus hook violations all repairable" `Slow (fun () ->
        let corpus = Corpus.generate () in
        let p = Checks.protocol corpus "dyn_ptr" in
        let fixed =
          reparse
            (List.map (Fixer.fix_hooks ~spec:p.Corpus.spec) p.Corpus.tus)
        in
        Alcotest.(check int) "no exec diags" 0
          (List.length (exec ~spec:p.Corpus.spec fixed)));
    t "corpus races all repairable" `Slow (fun () ->
        let corpus = Corpus.generate () in
        let p = Checks.protocol corpus "bitvector" in
        let diags = race ~spec:p.Corpus.spec p.Corpus.tus in
        Alcotest.(check int) "four before" 4 (List.length diags);
        let fixed =
          reparse (List.map (Fixer.fix_races ~diags) p.Corpus.tus)
        in
        Alcotest.(check int) "none after" 0
          (List.length (race ~spec:p.Corpus.spec fixed)));
  ]

let suite = ("fixer", cases)
