(** Convenience drivers: parse and annotate Clite programs. *)

(** The typedef names [tu] declares, in declaration order. *)
let typedef_names (tu : Ast.tunit) =
  List.filter_map
    (function Ast.Gtypedef (name, _, _) -> Some name | _ -> None)
    tu.Ast.tu_globals

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
        typedefs := List.rev_append (typedef_names tu) !typedefs;
        tu)
      units
  in
  Typecheck.annotate_program tus;
  (tus, List.rev !all_diags)

(** Parse and type-annotate one source string: the one-unit case of
    {!parse_strings}.  Never raises. *)
let parse ?(file = "<string>") src : Ast.tunit * Diag.t list =
  let tus, diags = parse_strings [ (file, src) ] in
  (List.hd tus, diags)

(** Count of non-blank source lines in [src] — the paper's LOC metric
    (all source lines excluding headers; we exclude blank lines). *)
let loc_count src =
  String.split_on_char '\n' src
  |> List.filter (fun line -> String.trim line <> "")
  |> List.length
