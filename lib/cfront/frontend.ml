(** Convenience drivers: parse and annotate Clite programs. *)

(** Parse and type-annotate one source string, recovering from lexical
    and syntax errors: malformed regions are skipped and reported as
    diagnostics, every intact function survives.  Never raises. *)
let parse ?(file = "<string>") src : Ast.tunit * Diag.t list =
  let tu, diags = Parser.parse_string_recovering ~file src in
  ignore (Typecheck.annotate tu);
  (tu, diags)

(** Parse several (file name, source) pairs as one program: typedefs from
    earlier units are visible in later ones (FLASH protocols share common
    headers), and type annotation sees all globals.  Each unit is parsed
    with panic-mode recovery and every diagnostic is returned, in file
    order.  Never raises. *)
let parse_strings (units : (string * string) list) :
    Ast.tunit list * Diag.t list =
  let typedefs = ref [] in
  let all_diags = ref [] in
  let tus =
    List.map
      (fun (file, src) ->
        let tu, diags =
          Parser.parse_string_recovering ~file ~typedefs:!typedefs src
        in
        all_diags := List.rev_append diags !all_diags;
        List.iter
          (function
            | Ast.Gtypedef (name, _, _) -> typedefs := name :: !typedefs
            | _ -> ())
          tu.Ast.tu_globals;
        tu)
      units
  in
  ignore (Typecheck.annotate_program tus);
  (tus, List.rev !all_diags)

(* the raising drivers: the first diagnostic, if any, as an exception *)
let first_error = function x, [] -> x | _, d :: _ -> Parser.raise_diag d

let of_string ?file src : Ast.tunit = first_error (parse ?file src)

let of_file path : Ast.tunit =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  of_string ~file:path src

let of_strings units : Ast.tunit list = first_error (parse_strings units)

(** Count of non-blank source lines in [src] — the paper's LOC metric
    (all source lines excluding headers; we exclude blank lines). *)
let loc_count src =
  String.split_on_char '\n' src
  |> List.filter (fun line -> String.trim line <> "")
  |> List.length
