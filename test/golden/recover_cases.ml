(** Broken sources that exercise panic-mode recovery: lexical garbage,
    unclosed constructs, truncated input.  Shared by the [recover]
    golden snapshot and the front-end differential tests. *)

let cases =
  [
    ( "garbage-between-functions",
      "void before(void) { long a; a = 1; }\n\
       void broken(void) { long x; x = @#$ ;;; }\n\
       void after(void) { long b; b = 2; }\n" );
    ( "unclosed-brace",
      "void before(void) { long a; a = 1; }\n\
       void broken(void) { long x; if (x) {\n" );
    ( "truncated-mid-statement",
      "void before(void) { long a; a = 1; }\nvoid broken(void) { long x; x =" );
    ( "unterminated-string",
      "void before(void) { long a; a = 1; }\n\
       void broken(void) { f(\"never closed); }\n\
       void after(void) { long b; b = 2; }\n" );
    ( "bad-toplevel-decl",
      "@@@ not a declaration @@@\nvoid after(void) { long b; b = 2; }\n" );
    ( "two-bad-regions",
      "void a1(void) { long a; a = 1; }\n\
       void bad1(void) { $$$ }\n\
       void a2(void) { long b; b = 2; }\n\
       void bad2(void) { %%% }\n\
       void a3(void) { long c; c = 3; }\n" );
    ("empty-file", "");
    ("only-garbage", "((((( @@@ )))))");
  ]
