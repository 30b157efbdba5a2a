(** Tokens produced by the Clite lexer. *)

(** A token's kind: [t] without its payload.  The lexer's token buffer
    stores one kind per token (constant constructors, so the column is a
    flat array of immediates and the parser compares kinds as ints); the
    literal and identifier payloads live in side columns. *)
type kind =
  (* literals and names *)
  | INT
  | FLOAT
  | STRING
  | CHAR
  | IDENT
  (* keywords *)
  | KW_VOID
  | KW_CHAR
  | KW_SHORT
  | KW_INT
  | KW_LONG
  | KW_UNSIGNED
  | KW_SIGNED
  | KW_FLOAT
  | KW_DOUBLE
  | KW_STRUCT
  | KW_UNION
  | KW_ENUM
  | KW_TYPEDEF
  | KW_STATIC
  | KW_EXTERN
  | KW_CONST
  | KW_VOLATILE
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_DO
  | KW_FOR
  | KW_SWITCH
  | KW_CASE
  | KW_DEFAULT
  | KW_RETURN
  | KW_BREAK
  | KW_CONTINUE
  | KW_GOTO
  | KW_SIZEOF
  | KW_INLINE
  (* punctuation *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | DOT
  | ARROW
  | QUESTION
  | COLON
  | ELLIPSIS
  (* operators *)
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | PLUSPLUS
  | MINUSMINUS
  | AMP
  | PIPE
  | CARET
  | TILDE
  | BANG
  | LSHIFT
  | RSHIFT
  | LT
  | GT
  | LE
  | GE
  | EQEQ
  | BANGEQ
  | AMPAMP
  | PIPEPIPE
  | ASSIGN
  | PLUSEQ
  | MINUSEQ
  | STAREQ
  | SLASHEQ
  | PERCENTEQ
  | AMPEQ
  | PIPEEQ
  | CARETEQ
  | LSHIFTEQ
  | RSHIFTEQ
  | EOF

(** A token with its payload: the list view of the buffer, and the text
    of "found ..." parse errors. *)
type t =
  (* literals and names *)
  | INT of int64 * string
  | FLOAT of float * string
  | STRING of string
  | CHAR of char
  | IDENT of string
  (* keywords *)
  | KW_VOID
  | KW_CHAR
  | KW_SHORT
  | KW_INT
  | KW_LONG
  | KW_UNSIGNED
  | KW_SIGNED
  | KW_FLOAT
  | KW_DOUBLE
  | KW_STRUCT
  | KW_UNION
  | KW_ENUM
  | KW_TYPEDEF
  | KW_STATIC
  | KW_EXTERN
  | KW_CONST
  | KW_VOLATILE
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_DO
  | KW_FOR
  | KW_SWITCH
  | KW_CASE
  | KW_DEFAULT
  | KW_RETURN
  | KW_BREAK
  | KW_CONTINUE
  | KW_GOTO
  | KW_SIZEOF
  | KW_INLINE
  (* punctuation *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | DOT
  | ARROW
  | QUESTION
  | COLON
  | ELLIPSIS
  (* operators *)
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | PLUSPLUS
  | MINUSMINUS
  | AMP
  | PIPE
  | CARET
  | TILDE
  | BANG
  | LSHIFT
  | RSHIFT
  | LT
  | GT
  | LE
  | GE
  | EQEQ
  | BANGEQ
  | AMPAMP
  | PIPEPIPE
  | ASSIGN
  | PLUSEQ
  | MINUSEQ
  | STAREQ
  | SLASHEQ
  | PERCENTEQ
  | AMPEQ
  | PIPEEQ
  | CARETEQ
  | LSHIFTEQ
  | RSHIFTEQ
  | EOF

let keyword_table : (string * kind) list =
  [
    ("void", KW_VOID);
    ("char", KW_CHAR);
    ("short", KW_SHORT);
    ("int", KW_INT);
    ("long", KW_LONG);
    ("unsigned", KW_UNSIGNED);
    ("signed", KW_SIGNED);
    ("float", KW_FLOAT);
    ("double", KW_DOUBLE);
    ("struct", KW_STRUCT);
    ("union", KW_UNION);
    ("enum", KW_ENUM);
    ("typedef", KW_TYPEDEF);
    ("static", KW_STATIC);
    ("extern", KW_EXTERN);
    ("const", KW_CONST);
    ("volatile", KW_VOLATILE);
    ("if", KW_IF);
    ("else", KW_ELSE);
    ("while", KW_WHILE);
    ("do", KW_DO);
    ("for", KW_FOR);
    ("switch", KW_SWITCH);
    ("case", KW_CASE);
    ("default", KW_DEFAULT);
    ("return", KW_RETURN);
    ("break", KW_BREAK);
    ("continue", KW_CONTINUE);
    ("goto", KW_GOTO);
    ("sizeof", KW_SIZEOF);
    ("inline", KW_INLINE);
  ]

let keywords : (string, kind) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter (fun (s, k) -> Hashtbl.replace t s k) keyword_table;
  t

(** the token of a payload-free kind; the literal and identifier kinds
    have no token without their payload *)
let of_kind : kind -> t = function
  | INT | FLOAT | STRING | CHAR | IDENT ->
    invalid_arg "Token.of_kind: kind carries a payload"
  | KW_VOID -> KW_VOID
  | KW_CHAR -> KW_CHAR
  | KW_SHORT -> KW_SHORT
  | KW_INT -> KW_INT
  | KW_LONG -> KW_LONG
  | KW_UNSIGNED -> KW_UNSIGNED
  | KW_SIGNED -> KW_SIGNED
  | KW_FLOAT -> KW_FLOAT
  | KW_DOUBLE -> KW_DOUBLE
  | KW_STRUCT -> KW_STRUCT
  | KW_UNION -> KW_UNION
  | KW_ENUM -> KW_ENUM
  | KW_TYPEDEF -> KW_TYPEDEF
  | KW_STATIC -> KW_STATIC
  | KW_EXTERN -> KW_EXTERN
  | KW_CONST -> KW_CONST
  | KW_VOLATILE -> KW_VOLATILE
  | KW_IF -> KW_IF
  | KW_ELSE -> KW_ELSE
  | KW_WHILE -> KW_WHILE
  | KW_DO -> KW_DO
  | KW_FOR -> KW_FOR
  | KW_SWITCH -> KW_SWITCH
  | KW_CASE -> KW_CASE
  | KW_DEFAULT -> KW_DEFAULT
  | KW_RETURN -> KW_RETURN
  | KW_BREAK -> KW_BREAK
  | KW_CONTINUE -> KW_CONTINUE
  | KW_GOTO -> KW_GOTO
  | KW_SIZEOF -> KW_SIZEOF
  | KW_INLINE -> KW_INLINE
  | LPAREN -> LPAREN
  | RPAREN -> RPAREN
  | LBRACE -> LBRACE
  | RBRACE -> RBRACE
  | LBRACKET -> LBRACKET
  | RBRACKET -> RBRACKET
  | SEMI -> SEMI
  | COMMA -> COMMA
  | DOT -> DOT
  | ARROW -> ARROW
  | QUESTION -> QUESTION
  | COLON -> COLON
  | ELLIPSIS -> ELLIPSIS
  | PLUS -> PLUS
  | MINUS -> MINUS
  | STAR -> STAR
  | SLASH -> SLASH
  | PERCENT -> PERCENT
  | PLUSPLUS -> PLUSPLUS
  | MINUSMINUS -> MINUSMINUS
  | AMP -> AMP
  | PIPE -> PIPE
  | CARET -> CARET
  | TILDE -> TILDE
  | BANG -> BANG
  | LSHIFT -> LSHIFT
  | RSHIFT -> RSHIFT
  | LT -> LT
  | GT -> GT
  | LE -> LE
  | GE -> GE
  | EQEQ -> EQEQ
  | BANGEQ -> BANGEQ
  | AMPAMP -> AMPAMP
  | PIPEPIPE -> PIPEPIPE
  | ASSIGN -> ASSIGN
  | PLUSEQ -> PLUSEQ
  | MINUSEQ -> MINUSEQ
  | STAREQ -> STAREQ
  | SLASHEQ -> SLASHEQ
  | PERCENTEQ -> PERCENTEQ
  | AMPEQ -> AMPEQ
  | PIPEEQ -> PIPEEQ
  | CARETEQ -> CARETEQ
  | LSHIFTEQ -> LSHIFTEQ
  | RSHIFTEQ -> RSHIFTEQ
  | EOF -> EOF

let to_string = function
  | INT (_, s) -> s
  | FLOAT (_, s) -> s
  | STRING s -> Printf.sprintf "%S" s
  | CHAR c -> Printf.sprintf "'%c'" c
  | IDENT s -> s
  | KW_VOID -> "void"
  | KW_CHAR -> "char"
  | KW_SHORT -> "short"
  | KW_INT -> "int"
  | KW_LONG -> "long"
  | KW_UNSIGNED -> "unsigned"
  | KW_SIGNED -> "signed"
  | KW_FLOAT -> "float"
  | KW_DOUBLE -> "double"
  | KW_STRUCT -> "struct"
  | KW_UNION -> "union"
  | KW_ENUM -> "enum"
  | KW_TYPEDEF -> "typedef"
  | KW_STATIC -> "static"
  | KW_EXTERN -> "extern"
  | KW_CONST -> "const"
  | KW_VOLATILE -> "volatile"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_DO -> "do"
  | KW_FOR -> "for"
  | KW_SWITCH -> "switch"
  | KW_CASE -> "case"
  | KW_DEFAULT -> "default"
  | KW_RETURN -> "return"
  | KW_BREAK -> "break"
  | KW_CONTINUE -> "continue"
  | KW_GOTO -> "goto"
  | KW_SIZEOF -> "sizeof"
  | KW_INLINE -> "inline"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | SEMI -> ";"
  | COMMA -> ","
  | DOT -> "."
  | ARROW -> "->"
  | QUESTION -> "?"
  | COLON -> ":"
  | ELLIPSIS -> "..."
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | PLUSPLUS -> "++"
  | MINUSMINUS -> "--"
  | AMP -> "&"
  | PIPE -> "|"
  | CARET -> "^"
  | TILDE -> "~"
  | BANG -> "!"
  | LSHIFT -> "<<"
  | RSHIFT -> ">>"
  | LT -> "<"
  | GT -> ">"
  | LE -> "<="
  | GE -> ">="
  | EQEQ -> "=="
  | BANGEQ -> "!="
  | AMPAMP -> "&&"
  | PIPEPIPE -> "||"
  | ASSIGN -> "="
  | PLUSEQ -> "+="
  | MINUSEQ -> "-="
  | STAREQ -> "*="
  | SLASHEQ -> "/="
  | PERCENTEQ -> "%="
  | AMPEQ -> "&="
  | PIPEEQ -> "|="
  | CARETEQ -> "^="
  | LSHIFTEQ -> "<<="
  | RSHIFTEQ -> ">>="
  | EOF -> "<eof>"
