(** Golden-file generator for panic-mode parse recovery: the broken
    sources of [Recover_cases], each printed with its recovery
    diagnostics (under the ["lex"]/["parse"] pseudo-checkers) and the
    names of the functions that survived.  [dune runtest] diffs the output against
    [recover.expected]; intentional recovery changes are reviewed as
    diffs and accepted with [dune promote]. *)

let () =
  List.iter
    (fun (label, src) ->
      let tus, diags = Frontend.parse_strings [ (label ^ ".c", src) ] in
      Printf.printf "== %s\n" label;
      List.iter
        (fun d -> print_endline ("  " ^ Diag.to_string d))
        (Diag.normalize diags);
      let survivors =
        List.concat_map
          (fun tu ->
            List.map (fun (f : Ast.func) -> f.Ast.f_name) (Ast.functions tu))
          tus
      in
      Printf.printf "  survivors: %s\n"
        (match survivors with
        | [] -> "(none)"
        | fs -> String.concat ", " fs))
    Recover_cases.cases
