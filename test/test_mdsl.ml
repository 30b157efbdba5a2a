(** The metal concrete-syntax front end, exercised with the paper's own
    figures. *)

let t = Alcotest.test_case

(* Figure 2, verbatim (modulo the ligatures lost in the paper's PDF) *)
let figure2 =
  {|
{ #include "flash-includes.h" }
sm wait_for_db {
  /* Declare two variables 'addr' and 'buf' that can
   * match any integer expression. */
  decl { scalar } addr, buf;

  /* Checker begins in the first state (here 'start'). */
  start:
    { WAIT_FOR_DB_FULL(addr); } ==> stop
  | { MISCBUS_READ_DB(addr, buf); } ==>
      { err("Buffer not synchronized"); }
  ;
}
|}

(* Figure 3, verbatim *)
let figure3 =
  {|
{ #include "flash-includes.h" }
sm msglen_check {
  /* Named patterns specifying message length assignments
   * zero and non-zero values. */
  pat zero_assign =
    { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA } ;
  pat nonzero_assign =
    { HANDLER_GLOBALS(header.nh.len) = LEN_WORD }
  | { HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE } ;

  decl { unsigned } keep, swap, wait, dec, null, type;
  pat send_data =
    { PI_SEND(F_DATA, keep, swap, wait, dec, null) }
  | { IO_SEND(F_DATA, keep, swap, wait, dec, null) }
  | { NI_SEND(type, F_DATA, keep, wait, dec, null) } ;

  pat send_nodata =
    { PI_SEND(F_NODATA, keep, swap, wait, dec, null) }
  | { IO_SEND(F_NODATA, keep, swap, wait, dec, null) }
  | { NI_SEND(type, F_NODATA, keep, wait, dec, null) } ;

  /* Note, rules in the special 'all' state are always run no
   * matter what state the SM is in. */
  all:
    zero_assign ==> zero_len
  | nonzero_assign ==> nonzero_len ;

  /* If we have a zero-length, cannot send data */
  zero_len:
    send_data ==> { err("data send, zero len"); } ;

  /* If we have a non-zero length, must send data */
  nonzero_len:
    send_nodata ==> { err("nodata send, nonzero len"); } ;
}
|}

let run_on metal_src c_src =
  let sm = Mdsl.load metal_src in
  let tus =
    Parsed.ok (Frontend.parse_strings [ ("t.c", Prelude.text ^ c_src) ])
  in
  Engine.check sm (`Program tus)

let parse_cases =
  [
    t "Figure 2 parses" `Quick (fun () ->
        let parsed = Mdsl.parse figure2 in
        Alcotest.(check string) "name" "wait_for_db" parsed.Mdsl.sm_name;
        Alcotest.(check int) "decls" 2 (List.length parsed.Mdsl.decls);
        Alcotest.(check int) "states" 1 (List.length parsed.Mdsl.states));
    t "Figure 3 parses" `Quick (fun () ->
        let parsed = Mdsl.parse figure3 in
        Alcotest.(check string) "name" "msglen_check" parsed.Mdsl.sm_name;
        Alcotest.(check int) "named patterns" 4
          (List.length parsed.Mdsl.named_patterns);
        Alcotest.(check int) "states" 2 (List.length parsed.Mdsl.states);
        Alcotest.(check int) "all rules" 2
          (List.length parsed.Mdsl.all_rules));
    t "missing sm keyword rejected" `Quick (fun () ->
        match Mdsl.parse "machine x { }" with
        | exception Mdsl.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected a parse error");
    t "unknown pattern name rejected" `Quick (fun () ->
        match Mdsl.parse "sm x { start: nope ==> stop ; }" with
        | exception Mdsl.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected a parse error");
    t "unknown wildcard kind rejected" `Quick (fun () ->
        match Mdsl.parse "sm x { decl { complex } c; start: { f(c) } ==> stop ; }" with
        | exception Mdsl.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected a parse error");
    t "unsupported action rejected" `Quick (fun () ->
        match
          Mdsl.parse "sm x { start: { f() } ==> { launch_missiles(); } ; }"
        with
        | exception Mdsl.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected a parse error");
  ]

let run_cases =
  [
    t "Figure 2 finds the race" `Quick (fun () ->
        let diags =
          run_on figure2
            "void H(void) { long a; if (a) { WAIT_FOR_DB_FULL(a); } a = \
             MISCBUS_READ_DB(a, 0); }"
        in
        Alcotest.(check int) "one diag" 1 (List.length diags);
        Alcotest.(check string) "message" "Buffer not synchronized"
          (List.hd diags).Diag.message);
    t "Figure 2 is quiet on synchronised reads" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (List.length
             (run_on figure2
                "void H(void) { long a; WAIT_FOR_DB_FULL(a); a = \
                 MISCBUS_READ_DB(a, 0); }")));
    t "Figure 3 finds a zero-length data send" `Quick (fun () ->
        let diags =
          run_on figure3
            "void H(void) { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA; \
             NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); }"
        in
        Alcotest.(check int) "one diag" 1 (List.length diags);
        Alcotest.(check string) "message" "data send, zero len"
          (List.hd diags).Diag.message);
    t "Figure 3 finds a nonzero-length nodata send" `Quick (fun () ->
        let diags =
          run_on figure3
            "void H(void) { HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE; \
             PI_SEND(F_NODATA, 0, 0, W_NOWAIT, 1, 0); }"
        in
        Alcotest.(check int) "one diag" 1 (List.length diags));
    t "Figure 3 is quiet on consistent sends" `Quick (fun () ->
        Alcotest.(check int) "diags" 0
          (List.length
             (run_on figure3
                "void H(void) { HANDLER_GLOBALS(header.nh.len) = \
                 LEN_CACHELINE; NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, \
                 0); }")));
    t "the DSL checker agrees with the EDSL on the corpus" `Slow (fun () ->
        (* run the verbatim Figure 3 over bitvector and compare with our
           Msg_length implementation *)
        let corpus = Corpus.generate () in
        let p = Checks.protocol corpus "bitvector" in
        let dsl_sm = Mdsl.load figure3 in
        let dsl =
          Engine.check dsl_sm (`Program p.Corpus.tus)
        in
        let edsl =
          Checks.run Msg_length.name ~spec:p.Corpus.spec p.Corpus.tus
        in
        Alcotest.(check int) "same diagnostic count" (List.length edsl)
          (List.length dsl);
        List.iter2
          (fun (a : Diag.t) (b : Diag.t) ->
            Alcotest.(check string) "same function" a.Diag.func b.Diag.func)
          (List.sort Diag.compare edsl)
          (List.sort Diag.compare dsl));
  ]

let suite = ("mdsl (metal concrete syntax)", parse_cases @ run_cases)

(* the shipped .metal files load and behave *)
let shipped_cases =
  let load name = Mdsl.load_file (Filename.concat "../../../metal" name) in
  [
    t "shipped wait_for_db.metal finds the bitvector races" `Slow (fun () ->
        let sm = load "wait_for_db.metal" in
        let corpus = Corpus.generate () in
        let p = Checks.protocol corpus "bitvector" in
        let diags =
          Engine.check sm (`Program p.Corpus.tus)
        in
        Alcotest.(check int) "four races" 4 (List.length diags));
    t "shipped refcount.metal objects to the Section 11 call" `Quick
      (fun () ->
        let sm = load "refcount.metal" in
        let tus =
          Parsed.ok
            (Frontend.parse_strings
               [
                 ( "t.c",
                   Prelude.text
                   ^ "void H(void) { DB_INC_REFCOUNT(); FREE_DB(); }" );
               ])
        in
        let diags =
          Engine.check sm (`Program tus)
        in
        Alcotest.(check int) "flagged" 1 (List.length diags));
  ]

let suite =
  let name, cases0 = suite in
  (name, cases0 @ shipped_cases)
