(** Recursive-descent parser for Clite.

    The grammar is the C subset FLASH-style protocol code uses: global
    variables, typedefs, struct/union/enum definitions, function prototypes
    and definitions; all C statements including [switch]/[goto]; the full
    expression grammar with standard precedence.  Typedef names are tracked
    so that declarations can be distinguished from expressions, as in any C
    parser. *)

(* raised at the offending token; only the recovery loop and
   [parse_expr_string] catch it, turning it into a [parse] diagnostic *)
exception Syntax_error of string * Loc.t

(* The parser reads the lexer's token buffer by index: it compares
   [Token.kind]s (immediates), fetches an identifier's interned name or a
   literal from the payload column only where it needs one, and builds a
   [Loc.t] only where an AST node stores it. *)
type t = {
  buf : Lexer.buf;
  src : string;  (** the text [buf] was lexed from *)
  kinds : Token.kind array;
  last : int;  (** index of the EOF token *)
  mutable pos : int;
  typedefs : (int, unit) Hashtbl.t;  (** interned ids of typedef names *)
  mutable loc_pos : int;
  mutable loc : Loc.t;  (** the location of token [loc_pos] *)
  mutable line_no : int;
  mutable line_off : int;  (** byte offset in [src] where [line_no] starts *)
}

let create ~src (buf : Lexer.buf) =
  {
    buf;
    src;
    kinds = buf.Lexer.kinds;
    last = buf.Lexer.len - 1;
    pos = 0;
    typedefs = Hashtbl.create 16;
    loc_pos = -1;
    loc = Loc.none;
    line_no = 1;
    line_off = 0;
  }

let cur p = p.kinds.(p.pos)

(* A statement and the expression it starts with, or a declaration and
   its specifiers, share their first token's location: keep the last one
   built. *)
let cur_loc p =
  if p.loc_pos <> p.pos then begin
    p.loc <- Lexer.loc p.buf p.pos;
    p.loc_pos <- p.pos
  end;
  p.loc

let peek_at p n : Token.kind =
  let i = p.pos + n in
  if i <= p.last then p.kinds.(i) else Token.EOF

(* the name of the [IDENT] at the cursor *)
let cur_ident p = Symtab.name p.buf.Lexer.payloads.(p.pos)

(* the literal token at the cursor *)
let cur_lit p = p.buf.Lexer.lits.(p.buf.Lexer.payloads.(p.pos))

let advance p = if p.pos < p.last then p.pos <- p.pos + 1

let error p msg =
  raise
    (Syntax_error
       ( Printf.sprintf "%s (found %s)" msg
           (Token.to_string (Lexer.token p.buf p.pos)),
         cur_loc p ))

let expect p (k : Token.kind) =
  if cur p = k then advance p
  else
    error p (Printf.sprintf "expected %s" (Token.to_string (Token.of_kind k)))

let expect_ident p =
  match cur p with
  | Token.IDENT ->
    let s = cur_ident p in
    advance p;
    s
  | _ -> error p "expected identifier"

let accept p (k : Token.kind) =
  if cur p = k then begin
    advance p;
    true
  end
  else false

(* the value of the [INT] at the cursor *)
let cur_int p =
  match cur_lit p with
  | Token.INT (v, _) -> v
  | _ -> error p "expected integer"

(* The byte offset of [loc] in [src].  The lexer counts a line per
   '\n' and a column per byte, so a cursor over line starts finds it.
   The parser never moves back, so the locations asked for never
   decrease: the cursor only moves forward and the whole file costs one
   scan. *)
let offset p (loc : Loc.t) =
  while p.line_no < loc.Loc.line do
    p.line_off <- String.index_from p.src p.line_off '\n' + 1;
    p.line_no <- p.line_no + 1
  done;
  p.line_off + loc.Loc.col - 1

(* a function's source digest: its text from [start] through the closing
   brace at [close] *)
let src_digest p ~(start : Loc.t) ~(close : Loc.t) =
  let a = offset p start in
  Digest.substring p.src a (offset p close + 1 - a)

let add_typedef p name = Hashtbl.replace p.typedefs (Symtab.intern name) ()

(* is the [IDENT] at index [i] a typedef name? *)
let is_typedef_at p i = Hashtbl.mem p.typedefs p.buf.Lexer.payloads.(i)

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

(* Does the current token begin a type? Used to distinguish declarations
   from expressions and casts from parenthesised expressions. *)
let starts_type p =
  match cur p with
  | Token.KW_VOID | Token.KW_CHAR | Token.KW_SHORT | Token.KW_INT
  | Token.KW_LONG | Token.KW_UNSIGNED | Token.KW_SIGNED | Token.KW_FLOAT
  | Token.KW_DOUBLE | Token.KW_STRUCT | Token.KW_UNION | Token.KW_ENUM
  | Token.KW_CONST | Token.KW_VOLATILE | Token.KW_STATIC | Token.KW_EXTERN
  | Token.KW_TYPEDEF | Token.KW_INLINE ->
    true
  | Token.IDENT -> is_typedef_at p p.pos
  | _ -> false

type specifiers = {
  sp_type : Ctype.t;
  sp_static : bool;
  sp_typedef : bool;
  sp_struct_def : (string * (string * Ctype.t) list * bool) option;
      (* tag, fields, is_union — present when the specifier *defines* a
         struct/union body that must be registered as a global *)
  sp_enum_def : (string * (string * int option) list) option;
}

(* Parse declaration specifiers: storage classes, qualifiers, and the base
   type.  [parse_fields] is a forward reference to the struct-body parser. *)
let rec parse_specifiers p : specifiers =
  let static = ref false in
  let typedef = ref false in
  let base : Ctype.t option ref = ref None in
  let unsigned = ref false in
  let signed = ref false in
  let long = ref false in
  let struct_def = ref None in
  let enum_def = ref None in
  let set t =
    match !base with
    | None -> base := Some t
    | Some _ -> error p "duplicate type specifier"
  in
  let rec loop () =
    (match cur p with
    | Token.KW_CONST | Token.KW_VOLATILE | Token.KW_INLINE | Token.KW_EXTERN
      ->
      advance p;
      loop ()
    | Token.KW_STATIC ->
      static := true;
      advance p;
      loop ()
    | Token.KW_TYPEDEF ->
      typedef := true;
      advance p;
      loop ()
    | Token.KW_UNSIGNED ->
      unsigned := true;
      advance p;
      loop ()
    | Token.KW_SIGNED ->
      signed := true;
      advance p;
      loop ()
    | Token.KW_LONG ->
      long := true;
      advance p;
      loop ()
    | Token.KW_VOID ->
      set Ctype.Void;
      advance p;
      loop ()
    | Token.KW_CHAR ->
      set Ctype.Char;
      advance p;
      loop ()
    | Token.KW_SHORT ->
      set Ctype.Short;
      advance p;
      loop ()
    | Token.KW_INT ->
      set Ctype.Int;
      advance p;
      loop ()
    | Token.KW_FLOAT ->
      set Ctype.Float;
      advance p;
      loop ()
    | Token.KW_DOUBLE ->
      set Ctype.Double;
      advance p;
      loop ()
    | Token.KW_STRUCT | Token.KW_UNION ->
      let is_union = cur p = Token.KW_UNION in
      advance p;
      let tag = if cur p = Token.IDENT then expect_ident p else "<anon>" in
      if cur p = Token.LBRACE then begin
        advance p;
        let fields = parse_fields p in
        expect p Token.RBRACE;
        struct_def := Some (tag, fields, is_union)
      end;
      set (if is_union then Ctype.Union tag else Ctype.Struct tag);
      loop ()
    | Token.KW_ENUM ->
      advance p;
      let tag = if cur p = Token.IDENT then expect_ident p else "<anon>" in
      if cur p = Token.LBRACE then begin
        advance p;
        let items = parse_enum_items p in
        expect p Token.RBRACE;
        enum_def := Some (tag, items)
      end;
      set (Ctype.Enum tag);
      loop ()
    | Token.IDENT
      when !base = None && (not !unsigned) && (not !signed) && (not !long)
           && is_typedef_at p p.pos ->
      set (Ctype.Named (cur_ident p));
      advance p;
      loop ()
    | _ -> ());
    ()
  in
  loop ();
  let ty =
    match (!base, !unsigned, !long) with
    | Some Ctype.Char, true, _ -> Ctype.Uchar
    | Some Ctype.Short, true, _ -> Ctype.Ushort
    | Some Ctype.Int, true, false -> Ctype.Uint
    | Some Ctype.Int, true, true -> Ctype.Ulong
    | Some Ctype.Int, false, true -> Ctype.Long
    | Some t, _, _ -> t
    | None, true, false -> Ctype.Uint
    | None, true, true -> Ctype.Ulong
    | None, false, true -> Ctype.Long
    | None, false, false ->
      if !signed then Ctype.Int else error p "expected type specifier"
  in
  {
    sp_type = ty;
    sp_static = !static;
    sp_typedef = !typedef;
    sp_struct_def = !struct_def;
    sp_enum_def = !enum_def;
  }

and parse_fields p =
  let fields = ref [] in
  while cur p <> Token.RBRACE do
    let sp = parse_specifiers p in
    let rec decls () =
      let name, ty = parse_declarator p sp.sp_type in
      fields := (name, ty) :: !fields;
      if accept p Token.COMMA then decls ()
    in
    decls ();
    expect p Token.SEMI
  done;
  List.rev !fields

and parse_enum_items p =
  let items = ref [] in
  let rec loop () =
    match cur p with
    | Token.IDENT ->
      let name = expect_ident p in
      let value =
        if accept p Token.ASSIGN then begin
          let neg = accept p Token.MINUS in
          match cur p with
          | Token.INT ->
            let v = cur_int p in
            advance p;
            Some (Int64.to_int v * if neg then -1 else 1)
          | _ -> error p "expected integer in enum item"
        end
        else None
      in
      items := (name, value) :: !items;
      if accept p Token.COMMA then loop ()
    | _ -> ()
  in
  loop ();
  List.rev !items

(* Parse a declarator: pointer stars, the name, then array/function
   suffixes.  Returns the declared name and its full type. *)
and parse_declarator p base : string * Ctype.t =
  let ty = ref base in
  while accept p Token.STAR do
    (* qualifiers after * are allowed and ignored *)
    while accept p Token.KW_CONST || accept p Token.KW_VOLATILE do
      ()
    done;
    ty := Ctype.Ptr !ty
  done;
  let name = expect_ident p in
  let rec suffixes t =
    if cur p = Token.LBRACKET then begin
      advance p;
      let len =
        match cur p with
        | Token.INT ->
          let v = cur_int p in
          advance p;
          Some (Int64.to_int v)
        | Token.IDENT ->
          (* symbolic array bound: treated as unknown length *)
          advance p;
          None
        | _ -> None
      in
      expect p Token.RBRACKET;
      Ctype.Array (suffixes t, len)
    end
    else t
  in
  (name, suffixes !ty)

(* An abstract type, as in casts and sizeof: specifiers plus pointer
   stars and array suffixes with no name. *)
and parse_abstract_type p : Ctype.t =
  let sp = parse_specifiers p in
  let ty = ref sp.sp_type in
  while accept p Token.STAR do
    ty := Ctype.Ptr !ty
  done;
  !ty

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

and parse_expr p = parse_comma p

and parse_comma p =
  let e = parse_assign p in
  if cur p = Token.COMMA then begin
    let loc = cur_loc p in
    advance p;
    let rest = parse_comma p in
    Ast.mk_expr ~loc (Ast.Comma (e, rest))
  end
  else e

and parse_assign p =
  let lhs = parse_cond p in
  let mk_op op =
    let loc = cur_loc p in
    advance p;
    let rhs = parse_assign p in
    Ast.mk_expr ~loc (Ast.Op_assign (op, lhs, rhs))
  in
  match cur p with
  | Token.ASSIGN ->
    let loc = cur_loc p in
    advance p;
    let rhs = parse_assign p in
    Ast.mk_expr ~loc (Ast.Assign (lhs, rhs))
  | Token.PLUSEQ -> mk_op Ast.Add
  | Token.MINUSEQ -> mk_op Ast.Sub
  | Token.STAREQ -> mk_op Ast.Mul
  | Token.SLASHEQ -> mk_op Ast.Div
  | Token.PERCENTEQ -> mk_op Ast.Mod
  | Token.AMPEQ -> mk_op Ast.Band
  | Token.PIPEEQ -> mk_op Ast.Bor
  | Token.CARETEQ -> mk_op Ast.Bxor
  | Token.LSHIFTEQ -> mk_op Ast.Shl
  | Token.RSHIFTEQ -> mk_op Ast.Shr
  | _ -> lhs

and parse_cond p =
  let c = parse_binary p 0 in
  if cur p = Token.QUESTION then begin
    let loc = cur_loc p in
    advance p;
    let t = parse_assign p in
    expect p Token.COLON;
    let f = parse_cond p in
    Ast.mk_expr ~loc (Ast.Cond (c, t, f))
  end
  else c

(* Binary operators by increasing precedence level. *)
and binop_of_token : Token.kind -> _ = function
  | Token.PIPEPIPE -> Some (Ast.Lor, 1)
  | Token.AMPAMP -> Some (Ast.Land, 2)
  | Token.PIPE -> Some (Ast.Bor, 3)
  | Token.CARET -> Some (Ast.Bxor, 4)
  | Token.AMP -> Some (Ast.Band, 5)
  | Token.EQEQ -> Some (Ast.Eq, 6)
  | Token.BANGEQ -> Some (Ast.Ne, 6)
  | Token.LT -> Some (Ast.Lt, 7)
  | Token.GT -> Some (Ast.Gt, 7)
  | Token.LE -> Some (Ast.Le, 7)
  | Token.GE -> Some (Ast.Ge, 7)
  | Token.LSHIFT -> Some (Ast.Shl, 8)
  | Token.RSHIFT -> Some (Ast.Shr, 8)
  | Token.PLUS -> Some (Ast.Add, 9)
  | Token.MINUS -> Some (Ast.Sub, 9)
  | Token.STAR -> Some (Ast.Mul, 10)
  | Token.SLASH -> Some (Ast.Div, 10)
  | Token.PERCENT -> Some (Ast.Mod, 10)
  | _ -> None

and parse_binary p min_prec =
  let lhs = ref (parse_unary p) in
  let continue = ref true in
  while !continue do
    match binop_of_token (cur p) with
    | Some (op, prec) when prec >= min_prec ->
      let loc = cur_loc p in
      advance p;
      let rhs = parse_binary p (prec + 1) in
      lhs := Ast.mk_expr ~loc (Ast.Binop (op, !lhs, rhs))
    | _ -> continue := false
  done;
  !lhs

and parse_unary p =
  match cur p with
  | Token.PLUS ->
    advance p;
    parse_unary p
  | Token.MINUS -> parse_unop p Ast.Neg
  | Token.BANG -> parse_unop p Ast.Not
  | Token.TILDE -> parse_unop p Ast.Bnot
  | Token.STAR -> parse_unop p Ast.Deref
  | Token.AMP -> parse_unop p Ast.Addrof
  | Token.PLUSPLUS -> parse_unop p Ast.Preinc
  | Token.MINUSMINUS -> parse_unop p Ast.Predec
  | Token.KW_SIZEOF ->
    let loc = cur_loc p in
    advance p;
    if cur p = Token.LPAREN && starts_type_at p 1 then begin
      expect p Token.LPAREN;
      let ty = parse_abstract_type p in
      expect p Token.RPAREN;
      Ast.mk_expr ~loc (Ast.Sizeof_type ty)
    end
    else Ast.mk_expr ~loc (Ast.Sizeof_expr (parse_unary p))
  | Token.LPAREN when starts_type_at p 1 ->
    (* cast *)
    let loc = cur_loc p in
    advance p;
    let ty = parse_abstract_type p in
    expect p Token.RPAREN;
    Ast.mk_expr ~loc (Ast.Cast (ty, parse_unary p))
  | _ -> parse_postfix p

and parse_unop p op =
  let loc = cur_loc p in
  advance p;
  Ast.mk_expr ~loc (Ast.Unop (op, parse_unary p))

and starts_type_at p n =
  match peek_at p n with
  | Token.KW_VOID | Token.KW_CHAR | Token.KW_SHORT | Token.KW_INT
  | Token.KW_LONG | Token.KW_UNSIGNED | Token.KW_SIGNED | Token.KW_FLOAT
  | Token.KW_DOUBLE | Token.KW_STRUCT | Token.KW_UNION | Token.KW_ENUM
  | Token.KW_CONST | Token.KW_VOLATILE ->
    true
  | Token.IDENT -> is_typedef_at p (p.pos + n)
  | _ -> false

and parse_postfix p =
  let e = ref (parse_primary p) in
  let continue = ref true in
  while !continue do
    match cur p with
    | Token.LPAREN ->
      advance p;
      let args = ref [] in
      if cur p <> Token.RPAREN then begin
        args := [ parse_assign p ];
        while accept p Token.COMMA do
          args := parse_assign p :: !args
        done
      end;
      expect p Token.RPAREN;
      e := Ast.mk_expr ~loc:!e.Ast.eloc (Ast.Call (!e, List.rev !args))
    | Token.LBRACKET ->
      let loc = cur_loc p in
      advance p;
      let idx = parse_expr p in
      expect p Token.RBRACKET;
      e := Ast.mk_expr ~loc (Ast.Index (!e, idx))
    | Token.DOT ->
      let loc = cur_loc p in
      advance p;
      let f = expect_ident p in
      e := Ast.mk_expr ~loc (Ast.Field (!e, f))
    | Token.ARROW ->
      let loc = cur_loc p in
      advance p;
      let f = expect_ident p in
      e := Ast.mk_expr ~loc (Ast.Arrow (!e, f))
    | Token.PLUSPLUS ->
      let loc = cur_loc p in
      advance p;
      e := Ast.mk_expr ~loc (Ast.Unop (Ast.Postinc, !e))
    | Token.MINUSMINUS ->
      let loc = cur_loc p in
      advance p;
      e := Ast.mk_expr ~loc (Ast.Unop (Ast.Postdec, !e))
    | _ -> continue := false
  done;
  !e

and parse_primary p =
  match cur p with
  | Token.INT | Token.FLOAT | Token.STRING | Token.CHAR -> parse_literal p
  | Token.IDENT ->
    let loc = cur_loc p in
    let s = cur_ident p in
    advance p;
    Ast.mk_expr ~loc (Ast.Ident s)
  | Token.LPAREN ->
    advance p;
    let e = parse_expr p in
    expect p Token.RPAREN;
    e
  | _ -> error p "expected expression"

and parse_literal p =
  let loc = cur_loc p in
  match cur_lit p with
  | Token.INT (v, s) ->
    advance p;
    Ast.mk_expr ~loc (Ast.Int_lit (v, s))
  | Token.FLOAT (v, s) ->
    advance p;
    Ast.mk_expr ~loc (Ast.Float_lit (v, s))
  | Token.STRING s ->
    advance p;
    (* adjacent string literals concatenate, as in C *)
    let buf = Buffer.create (String.length s) in
    Buffer.add_string buf s;
    let rec more () =
      if cur p = Token.STRING then begin
        (match cur_lit p with
        | Token.STRING s2 -> Buffer.add_string buf s2
        | _ -> ());
        advance p;
        more ()
      end
    in
    more ();
    Ast.mk_expr ~loc (Ast.Str_lit (Buffer.contents buf))
  | Token.CHAR c ->
    advance p;
    Ast.mk_expr ~loc (Ast.Char_lit c)
  | _ -> error p "expected expression"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and parse_stmt p : Ast.stmt =
  let loc = cur_loc p in
  match cur p with
  | Token.LBRACE ->
    advance p;
    let body = ref [] in
    while cur p <> Token.RBRACE do
      body := parse_stmt p :: !body
    done;
    expect p Token.RBRACE;
    Ast.mk_stmt ~loc (Ast.Sblock (List.rev !body))
  | Token.SEMI ->
    advance p;
    Ast.mk_stmt ~loc Ast.Snull
  | Token.KW_IF ->
    advance p;
    expect p Token.LPAREN;
    let cond = parse_expr p in
    expect p Token.RPAREN;
    let then_s = parse_stmt p in
    let else_s = if accept p Token.KW_ELSE then Some (parse_stmt p) else None in
    Ast.mk_stmt ~loc (Ast.Sif (cond, then_s, else_s))
  | Token.KW_WHILE ->
    advance p;
    expect p Token.LPAREN;
    let cond = parse_expr p in
    expect p Token.RPAREN;
    Ast.mk_stmt ~loc (Ast.Swhile (cond, parse_stmt p))
  | Token.KW_DO ->
    advance p;
    let body = parse_stmt p in
    expect p Token.KW_WHILE;
    expect p Token.LPAREN;
    let cond = parse_expr p in
    expect p Token.RPAREN;
    expect p Token.SEMI;
    Ast.mk_stmt ~loc (Ast.Sdo (body, cond))
  | Token.KW_FOR ->
    advance p;
    expect p Token.LPAREN;
    let init =
      if cur p = Token.SEMI then None
      else if starts_type p then begin
        let d = parse_local_decl_single p in
        Some (Ast.Fi_decl d)
      end
      else Some (Ast.Fi_expr (parse_expr p))
    in
    (match init with Some (Ast.Fi_decl _) -> () | _ -> expect p Token.SEMI);
    let cond = if cur p = Token.SEMI then None else Some (parse_expr p) in
    expect p Token.SEMI;
    let step = if cur p = Token.RPAREN then None else Some (parse_expr p) in
    expect p Token.RPAREN;
    Ast.mk_stmt ~loc (Ast.Sfor (init, cond, step, parse_stmt p))
  | Token.KW_SWITCH ->
    advance p;
    expect p Token.LPAREN;
    let scrutinee = parse_expr p in
    expect p Token.RPAREN;
    Ast.mk_stmt ~loc (Ast.Sswitch (scrutinee, parse_stmt p))
  | Token.KW_CASE ->
    advance p;
    let e = parse_cond p in
    expect p Token.COLON;
    Ast.mk_stmt ~loc (Ast.Scase e)
  | Token.KW_DEFAULT ->
    advance p;
    expect p Token.COLON;
    Ast.mk_stmt ~loc Ast.Sdefault
  | Token.KW_RETURN ->
    advance p;
    let e = if cur p = Token.SEMI then None else Some (parse_expr p) in
    expect p Token.SEMI;
    Ast.mk_stmt ~loc (Ast.Sreturn e)
  | Token.KW_BREAK ->
    advance p;
    expect p Token.SEMI;
    Ast.mk_stmt ~loc Ast.Sbreak
  | Token.KW_CONTINUE ->
    advance p;
    expect p Token.SEMI;
    Ast.mk_stmt ~loc Ast.Scontinue
  | Token.KW_GOTO ->
    advance p;
    let label = expect_ident p in
    expect p Token.SEMI;
    Ast.mk_stmt ~loc (Ast.Sgoto label)
  | Token.IDENT
    when peek_at p 1 = Token.COLON && peek_at p 2 <> Token.COLON
         && not (is_typedef_at p p.pos) ->
    let name = cur_ident p in
    advance p;
    advance p;
    (* absorb an immediately-following null statement: the printer emits
       labels as "name:;" so that a label may legally end a block *)
    ignore (accept p Token.SEMI);
    Ast.mk_stmt ~loc (Ast.Slabel name)
  | _ when starts_type p ->
    let decls = parse_local_decls p in
    (match decls with
    | [ d ] -> Ast.mk_stmt ~loc (Ast.Sdecl d)
    | ds ->
      Ast.mk_stmt ~loc
        (Ast.Sblock (List.map (fun d -> Ast.mk_stmt ~loc (Ast.Sdecl d)) ds)))
  | _ ->
    let e = parse_expr p in
    expect p Token.SEMI;
    Ast.mk_stmt ~loc (Ast.Sexpr e)

(* A single declaration with exactly one declarator, consuming the ';'
   (used in for-init). *)
and parse_local_decl_single p : Ast.var_decl =
  let loc = cur_loc p in
  let sp = parse_specifiers p in
  let name, ty = parse_declarator p sp.sp_type in
  let init = if accept p Token.ASSIGN then Some (parse_assign p) else None in
  expect p Token.SEMI;
  { Ast.v_name = name; v_type = ty; v_init = init; v_loc = loc;
    v_static = sp.sp_static }

(* A local declaration possibly declaring several comma-separated names. *)
and parse_local_decls p : Ast.var_decl list =
  let loc = cur_loc p in
  let sp = parse_specifiers p in
  let decls = ref [] in
  let rec one () =
    let name, ty = parse_declarator p sp.sp_type in
    let init = if accept p Token.ASSIGN then Some (parse_assign p) else None in
    decls :=
      { Ast.v_name = name; v_type = ty; v_init = init; v_loc = loc;
        v_static = sp.sp_static }
      :: !decls;
    if accept p Token.COMMA then one ()
  in
  one ();
  expect p Token.SEMI;
  List.rev !decls

(* ------------------------------------------------------------------ *)
(* Globals                                                             *)
(* ------------------------------------------------------------------ *)

let parse_params p : (string * Ctype.t) list =
  expect p Token.LPAREN;
  if accept p Token.RPAREN then []
  else if cur p = Token.KW_VOID && peek_at p 1 = Token.RPAREN then begin
    advance p;
    advance p;
    []
  end
  else begin
    let params = ref [] in
    let rec one () =
      let sp = parse_specifiers p in
      (* abstract declarators are allowed in prototypes: consume pointer
         stars, then an optional name *)
      let base = ref sp.sp_type in
      while accept p Token.STAR do
        while accept p Token.KW_CONST || accept p Token.KW_VOLATILE do
          ()
        done;
        base := Ctype.Ptr !base
      done;
      let name, ty =
        match cur p with
        | Token.RPAREN | Token.COMMA ->
          (* unnamed parameter (prototype style) *)
          ("", !base)
        | Token.IDENT ->
          let name = expect_ident p in
          let rec suffixes t =
            if accept p Token.LBRACKET then begin
              let len =
                match cur p with
                | Token.INT ->
                  let v = cur_int p in
                  advance p;
                  Some (Int64.to_int v)
                | Token.IDENT ->
                  advance p;
                  None
                | _ -> None
              in
              expect p Token.RBRACKET;
              Ctype.Array (suffixes t, len)
            end
            else t
          in
          (name, suffixes !base)
        | _ -> ("", !base)
      in
      params := (name, ty) :: !params;
      if accept p Token.COMMA then
        if cur p = Token.ELLIPSIS then advance p else one ()
    in
    one ();
    expect p Token.RPAREN;
    List.rev !params
  end

let parse_global p : Ast.global list =
  let loc = cur_loc p in
  let sp = parse_specifiers p in
  let tag_globals =
    (match sp.sp_struct_def with
    | Some (tag, fields, false) -> [ Ast.Gstruct (tag, fields, loc) ]
    | Some (tag, fields, true) -> [ Ast.Gunion (tag, fields, loc) ]
    | None -> [])
    @
    match sp.sp_enum_def with
    | Some (tag, items) -> [ Ast.Genum (tag, items, loc) ]
    | None -> []
  in
  (* bare "struct S { ... };" or "enum E { ... };" *)
  if cur p = Token.SEMI && tag_globals <> [] then begin
    advance p;
    tag_globals
  end
  else if sp.sp_typedef then begin
    let name, ty = parse_declarator p sp.sp_type in
    expect p Token.SEMI;
    add_typedef p name;
    tag_globals @ [ Ast.Gtypedef (name, ty, loc) ]
  end
  else begin
    let name, ty = parse_declarator p sp.sp_type in
    if cur p = Token.LPAREN then begin
      (* function prototype or definition *)
      let params = parse_params p in
      if accept p Token.SEMI then
        tag_globals
        @ [ Ast.Gfunc_decl (name, ty, List.map snd params, loc) ]
      else begin
        let end_loc = ref loc in
        expect p Token.LBRACE;
        let body = ref [] in
        while cur p <> Token.RBRACE do
          body := parse_stmt p :: !body
        done;
        end_loc := cur_loc p;
        expect p Token.RBRACE;
        tag_globals
        @ [
            Ast.Gfunc
              {
                Ast.f_name = name;
                f_ret = ty;
                f_params = params;
                f_body = List.rev !body;
                f_loc = loc;
                f_static = sp.sp_static;
                f_end_loc = !end_loc;
                f_src_digest = Some (src_digest p ~start:loc ~close:!end_loc);
              };
          ]
      end
    end
    else begin
      (* global variable(s) *)
      let mk name ty init =
        {
          Ast.v_name = name;
          v_type = ty;
          v_init = init;
          v_loc = loc;
          v_static = sp.sp_static;
        }
      in
      let init =
        if accept p Token.ASSIGN then Some (parse_assign p) else None
      in
      let vars = ref [ mk name ty init ] in
      while accept p Token.COMMA do
        let name, ty = parse_declarator p sp.sp_type in
        let init =
          if accept p Token.ASSIGN then Some (parse_assign p) else None
        in
        vars := mk name ty init :: !vars
      done;
      expect p Token.SEMI;
      tag_globals @ List.rev_map (fun v -> Ast.Gvar v) !vars
    end
  end

(* ------------------------------------------------------------------ *)
(* Panic-mode recovery                                                 *)
(* ------------------------------------------------------------------ *)

(* One bad construct must not abort a whole-corpus run (XCheck's
   micro-grammar lesson: bug finders stay useful by skipping what they
   cannot parse).  On [Syntax_error] the recovering driver records a
   [parse] diagnostic and resynchronises: it skips forward to a ';' or
   '}' at the error's own brace depth — which closes the enclosing
   function body when the error was inside one — or to a token that can
   begin a top-level declaration.  Every syntactically-intact global that
   follows is still parsed, so every intact function is still checked. *)

let max_parse_diags = 100

let parse_diag msg loc =
  Diag.make ~checker:"parse" ~loc ~func:"<toplevel>" msg

(* Skip to a resynchronisation point.  Depth is relative to the error
   position: a '}' seen at relative depth 0 is assumed to close the
   broken enclosing construct and is consumed. *)
let resync p =
  let depth = ref 0 in
  let continue = ref true in
  while !continue && cur p <> Token.EOF do
    match cur p with
    | Token.LBRACE ->
      incr depth;
      advance p
    | Token.RBRACE ->
      if !depth = 0 then begin
        advance p;
        continue := false
      end
      else begin
        decr depth;
        advance p
      end
    | Token.SEMI when !depth = 0 ->
      advance p;
      continue := false
    | _ when !depth = 0 && starts_type p -> continue := false
    | _ -> advance p
  done

(* The one driver loop: every intact global is kept, every error is
   recorded and skipped. *)
let parse_buf ~typedefs ~src (buf : Lexer.buf) : Ast.tunit * Diag.t list =
  let p = create ~src buf in
  List.iter (add_typedef p) typedefs;
  let globals = ref [] in
  let diags = ref [] in
  let n_diags = ref 0 in
  while cur p <> Token.EOF do
    let start = p.pos in
    match parse_global p with
    | gs -> globals := List.rev_append gs !globals
    | exception Syntax_error (msg, loc) ->
      incr n_diags;
      if !n_diags <= max_parse_diags then
        diags := parse_diag msg loc :: !diags;
      (* progress is guaranteed: at least one token is consumed before
         each resynchronisation attempt *)
      if p.pos = start then advance p;
      resync p
  done;
  ( { Ast.tu_file = buf.Lexer.file; tu_globals = List.rev !globals },
    buf.Lexer.diags @ List.rev !diags )

(** Parse a translation unit, recovering from both lexical and syntax
    errors: malformed regions are skipped and reported as [lex]/[parse]
    diagnostics while every intact global is kept.  Never raises.
    [typedefs] seeds typedef names already declared by earlier units. *)
let parse_string_recovering ?(file = "<string>") ?(typedefs = []) src : Ast.tunit * Diag.t list =
  Mcobs.with_span "cfront.parse" ~args:[ ("file", file) ] (fun () ->
      let buf =
        Mcobs.with_span "cfront.lex"
          ~args:
            [ ("file", file); ("bytes", string_of_int (String.length src)) ]
          (fun () -> Lexer.lex ~file src)
      in
      parse_buf ~typedefs ~src buf)

(** Parse a single expression (checker patterns, tests): the first
    [lex] or [parse] diagnostic, if any.  Never raises.  The many tiny
    calls made when compiling checker patterns get no trace spans, as
    they would flood the trace buffer. *)
let parse_expr_string ?(file = "<string>") src : (Ast.expr, Diag.t) result =
  let buf = Lexer.lex ~file src in
  match buf.Lexer.diags with
  | d :: _ -> Error d
  | [] -> (
    let p = create ~src buf in
    match
      let e = parse_expr p in
      if cur p <> Token.EOF then error p "trailing tokens after expression";
      e
    with
    | e -> Ok e
    | exception Syntax_error (msg, loc) -> Error (parse_diag msg loc))
