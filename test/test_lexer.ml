(** Lexer unit and property tests. *)

let tokens_of src = List.map fst (Parsed.ok (Lexer.tokens_recovering src))

(* the first lex diagnostic of [src], as (message, location) *)
let first_lex src =
  match snd (Lexer.tokens_recovering src) with
  | d :: _ -> Some (d.Diag.message, Loc.to_string d.Diag.loc)
  | [] -> None

let check_tokens name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let got = tokens_of src in
      Alcotest.(check int)
        (name ^ " token count")
        (List.length expected) (List.length got);
      List.iteri
        (fun i (e, g) ->
          Alcotest.(check string)
            (Printf.sprintf "%s token %d" name i)
            (Token.to_string e) (Token.to_string g))
        (List.combine expected got))

let t = Alcotest.test_case

let cases =
  [
    check_tokens "empty" "" [ Token.EOF ];
    check_tokens "identifier" "foo_bar42"
      [ Token.IDENT "foo_bar42"; Token.EOF ];
    check_tokens "keywords" "if else while return"
      [ Token.KW_IF; Token.KW_ELSE; Token.KW_WHILE; Token.KW_RETURN;
        Token.EOF ];
    check_tokens "decimal int" "42" [ Token.INT (42L, "42"); Token.EOF ];
    check_tokens "hex int" "0xff" [ Token.INT (255L, "0xff"); Token.EOF ];
    check_tokens "suffixed int" "42UL" [ Token.INT (42L, "42UL"); Token.EOF ];
    check_tokens "zero" "0" [ Token.INT (0L, "0"); Token.EOF ];
    check_tokens "octal int" "010" [ Token.INT (8L, "010"); Token.EOF ];
    check_tokens "suffixed octal int" "0777UL"
      [ Token.INT (511L, "0777UL"); Token.EOF ];
    check_tokens "hex is not octal" "0x10"
      [ Token.INT (16L, "0x10"); Token.EOF ];
    check_tokens "float" "3.5" [ Token.FLOAT (3.5, "3.5"); Token.EOF ];
    check_tokens "float exponent" "1e3"
      [ Token.FLOAT (1000.0, "1e3"); Token.EOF ];
    check_tokens "float f-suffix" "2.0f"
      [ Token.FLOAT (2.0, "2.0f"); Token.EOF ];
    check_tokens "char literal" "'a'" [ Token.CHAR 'a'; Token.EOF ];
    check_tokens "escaped char" "'\\n'" [ Token.CHAR '\n'; Token.EOF ];
    check_tokens "string" "\"hi\"" [ Token.STRING "hi"; Token.EOF ];
    check_tokens "string with escape" "\"a\\nb\""
      [ Token.STRING "a\nb"; Token.EOF ];
    check_tokens "arrow vs minus" "a->b - c"
      [ Token.IDENT "a"; Token.ARROW; Token.IDENT "b"; Token.MINUS;
        Token.IDENT "c"; Token.EOF ];
    check_tokens "shift vs compare" "a << b < c"
      [ Token.IDENT "a"; Token.LSHIFT; Token.IDENT "b"; Token.LT;
        Token.IDENT "c"; Token.EOF ];
    check_tokens "shift-assign" "a <<= 2"
      [ Token.IDENT "a"; Token.LSHIFTEQ; Token.INT (2L, "2"); Token.EOF ];
    check_tokens "increment" "a++ + ++b"
      [ Token.IDENT "a"; Token.PLUSPLUS; Token.PLUS; Token.PLUSPLUS;
        Token.IDENT "b"; Token.EOF ];
    check_tokens "line comment" "a // comment\nb"
      [ Token.IDENT "a"; Token.IDENT "b"; Token.EOF ];
    check_tokens "block comment" "a /* x\ny */ b"
      [ Token.IDENT "a"; Token.IDENT "b"; Token.EOF ];
    check_tokens "preprocessor skipped" "#include <x.h>\nfoo"
      [ Token.IDENT "foo"; Token.EOF ];
    check_tokens "preprocessor continuation" "#define A \\\n 42\nfoo"
      [ Token.IDENT "foo"; Token.EOF ];
    check_tokens "ellipsis" "f(...)"
      [ Token.IDENT "f"; Token.LPAREN; Token.ELLIPSIS; Token.RPAREN;
        Token.EOF ];
    t "line numbers advance" `Quick (fun () ->
        let toks = Parsed.ok (Lexer.tokens_recovering "a\nb\n  c") in
        let line_of tok =
          let _, loc = List.find (fun (t, _) -> t = Token.IDENT tok) toks in
          loc.Loc.line
        in
        Alcotest.(check int) "a line" 1 (line_of "a");
        Alcotest.(check int) "b line" 2 (line_of "b");
        Alcotest.(check int) "c line" 3 (line_of "c");
        let _, c_loc =
          List.find (fun (t, _) -> t = Token.IDENT "c") toks
        in
        Alcotest.(check int) "c col" 3 c_loc.Loc.col);
    t "unterminated string is a lex diagnostic" `Quick (fun () ->
        Alcotest.(check (option (pair string string)))
          "first" (Some ("unterminated string literal", "<string>:1:6"))
          (first_lex "\"oops"));
    t "bad octal digit is a lex diagnostic" `Quick (fun () ->
        let msg = "bad integer literal \"08\"" in
        let loc = Loc.make ~file:"<string>" ~line:1 ~col:3 in
        match Lexer.tokens_recovering "08" with
        | [ (Token.EOF, _) ], [ d ] ->
          Alcotest.(check string) "checker" "lex" d.Diag.checker;
          Alcotest.(check string) "message" msg d.Diag.message;
          Alcotest.(check bool) "loc" true (Loc.equal loc d.Diag.loc)
        | _ -> Alcotest.fail "expected one lex diagnostic and EOF");
    t "unexpected char is a lex diagnostic" `Quick (fun () ->
        Alcotest.(check (option (pair string string)))
          "first" (Some ("unexpected character '$'", "<string>:1:3"))
          (first_lex "a $ b"));
  ]

(* property: every decimal integer round-trips *)
let prop_int_roundtrip =
  QCheck.Test.make ~name:"lexer int literal roundtrip" ~count:200
    QCheck.(int_bound 1_000_000_000)
    (fun n ->
      match tokens_of (string_of_int n) with
      | [ Token.INT (v, _); Token.EOF ] -> Int64.to_int v = n
      | _ -> false)

(* property: identifiers survive arbitrary whitespace padding *)
let prop_ident_ws =
  let ident_gen =
    QCheck.Gen.(
      map2
        (fun c rest -> String.make 1 c ^ rest)
        (oneofl [ 'a'; 'z'; 'A'; '_' ])
        (string_size ~gen:(oneofl [ 'a'; 'b'; '0'; '_' ]) (0 -- 8)))
  in
  QCheck.Test.make ~name:"lexer ident under whitespace" ~count:200
    (QCheck.make ident_gen)
    (fun id ->
      match tokens_of ("  \t\n" ^ id ^ "   ") with
      | [ Token.IDENT got; Token.EOF ] ->
        (* keywords lex as keywords, anything else as itself *)
        got = id
      | [ _kw; Token.EOF ] -> List.mem_assoc id Token.keyword_table
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Differential: the buffer lexer against the reference lexer          *)
(* ------------------------------------------------------------------ *)

(* The production lexer's list view must equal [Ref_lexer]'s token for
   token and [Loc.t] for [Loc.t], and its lex diagnostics [Diag.t] for
   [Diag.t] (so the first ones agree too).  [None] when they agree,
   else where they first part. *)
let disagreement ?(file = "t.c") src =
  let toks, diags = Lexer.tokens_recovering ~file src in
  let rtoks, rdiags = Ref_lexer.tokens_recovering ~file src in
  let show (tok, loc) = Token.to_string tok ^ " at " ^ Loc.to_string loc in
  let missing = (Token.EOF, Loc.none) in
  let rec first_diff i a b =
    match (a, b) with
    | [], [] -> None
    | x :: a, y :: b ->
      if x = y then first_diff (i + 1) a b else Some (i, x, y)
    | x :: _, [] -> Some (i, x, missing)
    | [], y :: _ -> Some (i, missing, y)
  in
  let lines ds = String.concat "\n" (List.map Diag.to_string ds) in
  match first_diff 0 toks rtoks with
  | Some (i, x, y) ->
    Some
      (Printf.sprintf "%s: token %d is %s, reference %s" file i (show x)
         (show y))
  | None when diags <> rdiags ->
    Some
      (Printf.sprintf "%s: lex diagnostics differ:\n%s\nreference:\n%s" file
         (lines diags) (lines rdiags))
  | None -> None

let check_agree ?file label src =
  Alcotest.(check (option string)) label None (disagreement ?file src)

(* malformed and corner-case inputs, one lexical recovery path each *)
let edge_inputs =
  [
    ("unterminated string at end", "int x = f(\"abc");
    ("unterminated char at end", "c = 'a");
    ("unterminated char", "c = 'ab';");
    ("unterminated comment at end", "a /* never closed");
    ("escape at end of string", "\"abc\\");
    ("escape at end of char", "'\\");
    ("newline escape in string", "\"a\\\nb\" x");
    ("raw newline in string", "\"a\nb\" x");
    ("bad float literals", "1e; 2.5e+; 3.e-f; 4.0ef 5e 6.E");
    ("bad integer literals", "0x 0xg 08 09.5 0777UL 010u 0999999999999999999999");
    ("huge decimal", "123456789012345678 1234567890123456789 99999999999999999999");
    ("dollar and at", "a $ b @ c");
    ("NUL", "a\000b\000");
    ("hash after blanks", "  \t#define X 1\nfoo # bar\n \r#x\n");
    ("backslash-newline continuations", "#define A \\\n 42\nfoo \\\n bar");
    ("CRLF", "int a;\r\n#define X \\\r\nb = 'x';\r\n/* c\r\n */ d\r\n// e\r\nf");
    ("diagnostic cap", String.make 150 '$' ^ " x " ^ String.make 3 '@');
    ("non-ASCII bytes", "a \xc3\xa9 b\xff");
    ("dots", ".. ... . .... a.b");
    ("operators", "a<<=b>>=c->d++--e&&f||g!=h==i<=j>=k+=l-=m*=n/=o%=p&=q|=r^=s~t");
    ("keywords and identifiers", "int integer if iff _if If sizeof x1 _");
    ("empty", "");
    ("only trivia", "  \n\t // c\n /* d */ \n#p\n");
  ]

let edge_cases =
  t "the diagnostic cap is 100" `Quick (fun () ->
      let toks, diags = Lexer.tokens_recovering (String.make 150 '$') in
      Alcotest.(check int) "diagnostics" 100 (List.length diags);
      Alcotest.(check int) "tokens" 1 (List.length toks))
  :: List.map
       (fun (label, src) ->
         t ("agrees with reference: " ^ label) `Quick (fun () ->
             check_agree label src))
       edge_inputs

(* random soup of fragments that start, end or break tokens *)
let fragment_soup =
  let pieces =
    [| "a"; "int"; "x9"; " "; "\t"; "\n"; "\r\n"; "\""; "'"; "/*"; "*/";
       "//"; "#"; "\\"; "\\\n"; "0"; "08"; "0x"; "1e"; "1.5"; "f"; "e";
       "$"; "\000"; "..."; "."; "->"; "<<="; "+"; "@"; ";"; "{"; "}";
       "u"; "L"; "\xc3" |]
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      map (String.concat "")
        (list_size (0 -- 40) (oneofa pieces)))

let prop_soup_agrees =
  QCheck.Test.make ~name:"buffer lexer = reference on fragment soup"
    ~count:500 fragment_soup (fun src ->
      match disagreement src with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

(* the golden protocol with random byte edits: insertions (op 0),
   replacements (op 1) and deletions (op 2), of characters that start or
   end tokens *)
let golden_base = Golden.source Golden.Buggy
let edit_alphabet = "\"'/*#\\\n\r\000$@.eEfx0189uL;{} \t"

let golden_edits =
  let show (op, at, c) = Printf.sprintf "(%d, %d, %C)" op at c in
  QCheck.make
    ~print:(fun edits -> String.concat "; " (List.map show edits))
    QCheck.Gen.(
      list_size (1 -- 8)
        (triple (int_bound 2)
           (int_bound (String.length golden_base - 1))
           (map (String.get edit_alphabet)
              (int_bound (String.length edit_alphabet - 1)))))

let apply_edit src (op, at, c) =
  let at = min at (String.length src) in
  let pre = String.sub src 0 at
  and rest = String.sub src at (String.length src - at) in
  let tail =
    if rest = "" then "" else String.sub rest 1 (String.length rest - 1)
  in
  match op with
  | 0 -> pre ^ String.make 1 c ^ rest
  | 1 -> pre ^ String.make 1 c ^ tail
  | _ -> pre ^ tail

let prop_mutated_golden_agrees =
  QCheck.Test.make ~name:"buffer lexer = reference on mutated golden source"
    ~count:100 golden_edits (fun edits ->
      let src = List.fold_left apply_edit golden_base edits in
      match disagreement ~file:"golden.c" src with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

let input_cases =
  [
    t "agrees with reference: golden and recover inputs" `Quick (fun () ->
        List.iter
          (fun (label, units) ->
            List.iter (fun (file, src) -> check_agree ~file label src) units)
          Front_inputs.units);
    t "agrees with reference: fuzz seeds" `Quick (fun () ->
        for seed = 0 to 19 do
          let prog = Fuzz_gen.generate ~seed () in
          check_agree ~file:"fz.c" (Printf.sprintf "fuzz seed %d" seed)
            prog.Fuzz_gen.src
        done);
    t "agrees with reference: corpus seeds 0-15" `Slow (fun () ->
        List.iter
          (fun seed ->
            List.iter
              (fun (file, src) ->
                check_agree ~file (Printf.sprintf "seed %d" seed) src)
              (Front_inputs.files seed))
          Front_inputs.seeds);
    (* A speed tripwire, not a measurement: the buffer lexer must keep
       most of its lead over the reference on a real corpus.  Best of 5
       per side, interleaved in alternating order so host drift and heap
       growth hit both, each timed in this process's CPU time (user +
       system) so that other processes loading the host do not count.
       Each run starts from a full major collection: the buffer lexer
       allocates little, and would otherwise pay the major-GC debt of the
       reference's token lists and of the corpora earlier cases keep. *)
    t "buffer lexer at least 4x faster than the reference (seed 3)" `Slow
      (fun () ->
        let files = Front_inputs.files 3 in
        let cpu () =
          let t = Unix.times () in
          t.Unix.tms_utime +. t.Unix.tms_stime
        in
        let time lex_corpus best =
          Gc.full_major ();
          let t0 = cpu () in
          lex_corpus ();
          best := Float.min !best (cpu () -. t0)
        in
        let buffer () =
          List.iter (fun (file, src) -> ignore (Lexer.lex ~file src)) files
        and reference () =
          List.iter
            (fun (file, src) -> ignore (Ref_lexer.tokens_recovering ~file src))
            files
        in
        let best_b = ref infinity and best_r = ref infinity in
        for i = 0 to 4 do
          if i mod 2 = 0 then (
            time reference best_r;
            time buffer best_b)
          else (
            time buffer best_b;
            time reference best_r)
        done;
        if 4. *. !best_b > !best_r then
          Alcotest.failf "buffer lexer %.1f ms, reference %.1f ms: under 4x"
            (!best_b *. 1000.) (!best_r *. 1000.));
  ]

let suite =
  ( "lexer",
    cases @ edge_cases @ input_cases
    @ [
        QCheck_alcotest.to_alcotest prop_int_roundtrip;
        QCheck_alcotest.to_alcotest prop_ident_ws;
        QCheck_alcotest.to_alcotest prop_soup_agrees;
        QCheck_alcotest.to_alcotest prop_mutated_golden_agrees;
      ] )
