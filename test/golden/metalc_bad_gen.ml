(** Golden-file generator for the metal compiler's rejection
    diagnostics.  Every spec under [test/metalc-bad/] must be rejected
    by [Mrun.compile] with located, classified errors; the snapshot
    also records what the interpreter does with the same source, which
    documents exactly which silent-tolerance holes the compiler closes
    (unknown goto targets, shadowed duplicate states, wildcard
    callees...).  A second section pins the parse-error locations the
    two front ends report — the rebased line:col inside pattern
    snippets included.  [dune runtest] diffs against
    [metalc_bad.expected]; intentional diagnostic changes are reviewed
    as diffs and accepted with [dune promote]. *)

let dir = "../metalc-bad"

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let cases =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".metal")
    |> List.sort String.compare
  in
  List.iter
    (fun f ->
      let src = read (Filename.concat dir f) in
      Printf.printf "== %s\n" f;
      (match Mrun.compile ~file:f src with
      | Ok _ -> print_endline "  ACCEPTED (expected a rejection)"
      | Error es ->
        List.iter (fun e -> print_endline ("  " ^ Mir.render_error e)) es);
      match Mdsl.load ~file:f src with
      | _sm -> print_endline "  interpreter: accepts silently"
      | exception Mdsl.Parse_error (msg, loc) ->
        Printf.printf "  interpreter: rejects: %s: %s\n" (Loc.to_string loc)
          msg)
    cases

(* parse errors proper: both front ends must report the same located
   failure, including positions rebased into pattern snippets *)
let parse_cases =
  [
    ( "missing-arrow",
      "sm m {\n  decl { scalar } a;\n  start:\n    { FOO(a); } stop ;\n}\n"
    );
    ("unterminated-sm", "sm m {\n  decl { scalar } a;\n");
    ( "bad-snippet-expr",
      "sm m {\n  decl { scalar } a;\n  start:\n    { FOO(a; } ==> stop ;\n}\n"
    );
    ( "bad-decl-kind",
      "sm m {\n  decl { tensor } a;\n  start:\n    { FOO(a); } ==> stop ;\n}\n"
    );
  ]

let () =
  print_endline "== parse-error locations";
  List.iter
    (fun (label, src) ->
      let file = label ^ ".metal" in
      let interp =
        match Mdsl.load ~file src with
        | _sm -> "accepted"
        | exception Mdsl.Parse_error (msg, loc) ->
          Loc.to_string loc ^ ": " ^ msg
      in
      let compiled =
        match Mrun.compile ~file src with
        | Ok _ -> "accepted"
        | Error es ->
          String.concat "; " (List.map Mir.render_error es)
      in
      Printf.printf "  %-18s interp    %s\n" label interp;
      Printf.printf "  %-18s compiled  %s\n" label compiled)
    parse_cases
