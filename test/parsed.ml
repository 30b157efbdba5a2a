(** Parsing in test cases.  The front end returns its [lex]/[parse]
    diagnostics beside the result and never raises; a case that needs
    clean input wraps the call in [ok], which fails the case printing
    every diagnostic. *)

let fail_with diags =
  Alcotest.failf "the input does not parse (%d diagnostic(s)):\n%s"
    (List.length diags)
    (String.concat "\n" (List.map Diag.to_string diags))

(** the result of a parse that must be clean *)
let ok (x, diags) = if diags = [] then x else fail_with diags

(** an expression that must parse *)
let expr ?file src =
  match Parser.parse_expr_string ?file src with
  | Ok e -> e
  | Error d -> fail_with [ d ]
