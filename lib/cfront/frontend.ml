(** Convenience drivers: parse and annotate Clite programs. *)

(** The typedef names [tu] declares, in declaration order. *)
let typedef_names (tu : Ast.tunit) =
  List.filter_map
    (function Ast.Gtypedef (name, _, _) -> Some name | _ -> None)
    tu.Ast.tu_globals

(* What the pre-scan sees of the source: only the tokens its
   micro-grammar needs, every other one is [Other]. *)
type pre =
  | Typedef
  | Name of int * int  (** an identifier's offset and length *)
  | Open
  | Close
  | Semi
  | Bracket
  | Stop  (** [(] or [,]: a declarator the parser does not accept *)
  | Other
  | End

(* The pre-scan: the top-level typedef names a parse of [src] is
   expected to declare, read off the source text without lexing it into
   a token buffer.  A micro-grammar in XCheck's sense — it recognises
   only [typedef SPECIFIERS NAME[..];] at brace depth 0, the one shape
   the parser accepts, skipping comments, literals and preprocessor
   lines as the lexer does, and predicts nothing for anything else.  It
   may be wrong either way; [parse_units] checks every prediction against
   the real parse. *)
let prescan (src : string) : string list =
  let n = String.length src in
  let pos = ref 0 and bol = ref true in
  let at i = if i < n then String.unsafe_get src i else '\000' in
  (* an identifier's characters, and a number's dots *)
  let rec skip_word ~dot =
    match at !pos with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' ->
      incr pos;
      skip_word ~dot
    | '.' when dot ->
      incr pos;
      skip_word ~dot
    | _ -> ()
  in
  (* to the end of the line, or past [close] (not at a backslash) *)
  let rec skip_to close =
    if !pos < n then
      match String.unsafe_get src !pos with
      | '\n' -> ()
      | '\\' ->
        pos := !pos + 2;
        skip_to close
      | c when c = close ->
        incr pos
      | _ ->
        incr pos;
        skip_to close
  in
  let rec next () =
    if !pos >= n then End
    else
      let c = String.unsafe_get src !pos in
      match c with
      | '\n' ->
        incr pos;
        bol := true;
        next ()
      | ' ' | '\t' | '\r' ->
        incr pos;
        next ()
      | '#' when !bol ->
        (* a preprocessor line, continuations included *)
        skip_to '\n';
        next ()
      | '/' when at (!pos + 1) = '/' ->
        skip_to '\n';
        next ()
      | '/' when at (!pos + 1) = '*' ->
        pos := !pos + 2;
        while !pos < n && not (at !pos = '*' && at (!pos + 1) = '/') do
          incr pos
        done;
        pos := !pos + 2;
        next ()
      | _ -> (
        bol := false;
        let start = !pos in
        incr pos;
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
          skip_word ~dot:false;
          let len = !pos - start in
          if len = 7 && String.sub src start 7 = "typedef" then Typedef
          else Name (start, len)
        | '0' .. '9' ->
          skip_word ~dot:true;
          Other
        | '"' | '\'' ->
          skip_to c;
          Other
        | '{' -> Open
        | '}' -> Close
        | ';' -> Semi
        | '[' -> Bracket
        | '(' | ',' -> Stop
        | _ -> Other)
  in
  let add name acc =
    match name with
    | Some (start, len) ->
      let s = String.sub src start len in
      if Hashtbl.mem Token.keywords s then acc else s :: acc
    | None -> acc
  in
  (* past the braces just opened *)
  let rec skip_braces depth =
    if depth > 0 then
      match next () with
      | End -> ()
      | Open -> skip_braces (depth + 1)
      | Close -> skip_braces (depth - 1)
      | _ -> skip_braces depth
  in
  let rec top depth acc =
    match next () with
    | End -> List.rev acc
    | Open -> top (depth + 1) acc
    | Close -> top (max 0 (depth - 1)) acc
    | Typedef when depth = 0 -> decl None acc
    | _ -> top depth acc
  (* inside a top-level typedef; [name] is the last identifier seen
     outside braces *)
  and decl name acc =
    match next () with
    | End -> List.rev acc
    | Name (start, len) -> decl (Some (start, len)) acc
    | Open ->
      skip_braces 1;
      decl None acc
    | Semi -> top 0 (add name acc)
    | Bracket -> bound name acc
    | Stop | Close -> top 0 acc
    | Typedef | Other -> decl name acc
  and bound name acc =
    match next () with
    | End -> List.rev acc
    | Semi -> top 0 (add name acc)
    | _ -> bound name acc
  in
  top 0 []

let m_mispredict =
  Mcobs.counter "cfront.prescan.mispredict"
    ~help:"files re-parsed because the typedef pre-scan was wrong"

(* [f] on every index on the pool, largest source first so the long
   files do not finish last *)
let on_pool ~domains ~phase ~size f indices =
  Mcd_pool.iter ~phase ~domains f
    (List.stable_sort (fun a b -> Int.compare (size b) (size a)) indices)

(** Parse several (file name, source) pairs as one program, without
    annotating them: file [i] is parsed with the typedef names of files
    [0 .. i-1] in scope (most recent first), unless [known i ~scope]
    names the typedefs it declares, in which case it is not parsed.
    Returns each file's scope with its parse.

    On [domains > 1] the sources are pre-scanned for typedefs on the
    pool, each scope is built from the predictions before it, and the
    files are lexed and parsed on the pool; a sequential pass then
    compares every scope with the one the real parses give and
    re-parses in order wherever they differ, so the result is the
    sequential one whatever the pre-scan got wrong.  Never raises. *)
let parse_units ?(domains = 1) ?known (srcs : (string * string) list) :
    (string list * (Ast.tunit * Diag.t list) option) array =
  let ask i scope = match known with Some f -> f i ~scope | None -> None in
  let srcs = Array.of_list srcs in
  let n = Array.length srcs in
  let size i = String.length (snd srcs.(i)) in
  let lex i =
    let file, src = srcs.(i) in
    Mcobs.with_span "cfront.lex"
      ~args:[ ("file", file); ("bytes", string_of_int (String.length src)) ]
      (fun () -> Lexer.lex ~file src)
  in
  (* the scope each file was (or is to be) parsed under; [None] until
     planned *)
  let scopes = Array.make n None in
  let parsed = Array.make n None in
  (* the names a file [known] answers for declares *)
  let owns = Array.make n None in
  let parse i buf =
    let file, src = srcs.(i) in
    let typedefs = Option.get scopes.(i) in
    parsed.(i) <-
      Some
        (Mcobs.with_span "cfront.parse" ~args:[ ("file", file) ] (fun () ->
             Parser.parse_buf ~typedefs ~src buf))
  in
  let mispredicted = ref 0 in
  Mcobs.with_span "cfront.front"
    ~args:[ ("files", string_of_int n); ("domains", string_of_int domains) ]
    ~result_args:(fun _ -> [ ("mispredicted", string_of_int !mispredicted) ])
    (fun () ->
      if domains > 1 then begin
        (* 1. pre-scan on the pool; when [known] may answer for a
           file, it is pre-scanned only once it turns out to be needed *)
        let predicted = Array.make n None in
        let scan i = predicted.(i) <- Some (prescan (snd srcs.(i))) in
        if known = None then
          on_pool ~domains ~phase:"prescan" ~size scan (List.init n Fun.id);
        (* 2. scopes from the predictions *)
        let scope = ref [] in
        for i = 0 to n - 1 do
          scopes.(i) <- Some !scope;
          owns.(i) <- ask i !scope;
          let own =
            match owns.(i) with
            | Some names -> names
            | None ->
              if predicted.(i) = None then scan i;
              Option.get predicted.(i)
          in
          scope := List.rev_append own !scope
        done;
        (* 3. lex and parse on the pool: a token buffer lives only
           while its file is parsed *)
        on_pool ~domains ~phase:"parse" ~size
          (fun i -> parse i (lex i))
          (List.filter (fun i -> owns.(i) = None) (List.init n Fun.id))
      end;
      (* 4. in order: every scope the real parses give, re-planning and
         re-parsing the files whose scope differs (every file, on one
         domain, where nothing was planned) *)
      let scope = ref [] in
      for i = 0 to n - 1 do
        if scopes.(i) <> Some !scope then begin
          let planned = scopes.(i) <> None in
          scopes.(i) <- Some !scope;
          parsed.(i) <- None;
          owns.(i) <- ask i !scope;
          if owns.(i) = None then begin
            if planned then incr mispredicted;
            parse i (lex i)
          end
        end;
        let own =
          match owns.(i) with
          | Some names -> names
          | None -> typedef_names (fst (Option.get parsed.(i)))
        in
        scope := List.rev_append own !scope
      done);
  Mcobs.inc ~by:!mispredicted m_mispredict;
  Array.map2 (fun scope p -> (Option.get scope, p)) scopes parsed

(** Parse several (file name, source) pairs as one program: typedefs from
    earlier units are visible in later ones (FLASH protocols share common
    headers), and type annotation sees all globals.  Each unit is parsed
    with panic-mode recovery and every diagnostic is returned, in file
    order.  [domains] (default 1) lexes, parses and annotates on that
    many pool domains; the result is the same.  Never raises. *)
let parse_strings ?(domains = 1) (units : (string * string) list) :
    Ast.tunit list * Diag.t list =
  let parsed =
    List.map
      (fun (_, p) -> Option.get p)
      (Array.to_list (parse_units ~domains units))
  in
  let tus = List.map fst parsed in
  Typecheck.annotate_program ~domains tus;
  (tus, List.concat_map snd parsed)

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
