(* Seeded, inert, line-preserving edits.

   An edit appends the expression statement [" 0;"] to the line that
   ends the last statement of one function body.  No line moves, that
   function's digest changes (so the whole-request memo and the
   function's cached batch both miss), and the diagnostics stay
   byte-identical.  Only the end of a body is safe: exec_restrict checks
   what a handler's second statement is, so the function must already
   have two statements and the edit must follow them. *)

type t = { file : string; func : string; line : int  (** 1-based *) }

let inert = " 0;"

let ends_statement line =
  let s = String.trim line in
  let n = String.length s in
  n > 0 && (s.[n - 1] = ';' || s.[n - 1] = '}')

(* every editable function of one parsed file, in source order; [src] is
   the text [tu] was parsed from *)
let candidates ~(src : string) (tu : Ast.tunit) : t list =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  List.filter_map
    (fun (f : Ast.func) ->
      let line = f.Ast.f_end_loc.Loc.line - 1 in
      if
        List.length f.Ast.f_body >= 2
        && line > f.Ast.f_loc.Loc.line
        && line <= Array.length lines
        && ends_statement lines.(line - 1)
      then Some { file = tu.Ast.tu_file; func = f.Ast.f_name; line }
      else None)
    (Ast.functions tu)

(* a generated corpus parses each file's own text, so its units carry
   file-relative lines *)
let of_corpus (c : Corpus.t) : t list =
  List.concat_map
    (fun (p : Corpus.protocol) ->
      List.concat
        (List.map2
           (fun (_, src) tu -> candidates ~src tu)
           p.Corpus.files p.Corpus.tus))
    c.Corpus.protocols

let apply (src : string) (e : t) : string =
  String.concat "\n"
    (List.mapi
       (fun i l -> if i = e.line - 1 then l ^ inert else l)
       (String.split_on_char '\n' src))

(* the run's edit order: a seeded permutation, so no edit repeats before
   every candidate has been used once *)
let sequence ~seed (cands : t list) : t array =
  let a = Array.of_list cands in
  let rng = Random.State.make [| seed; 0xed17 |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a
