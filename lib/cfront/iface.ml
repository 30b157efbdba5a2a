(* A file's interface and its functions' facts.  See the interface. *)

type item =
  | Sig of string * Ctype.t * (string * Ctype.t) list
  | Decl of Ast.global

(* Locations and initialisers are left out (no function's result reads
   them), so a declaration that only shifts lines leaves every key of
   the program valid. *)
let items (tu : Ast.tunit) : item list =
  List.map
    (function
      | Ast.Gfunc f -> Sig (f.Ast.f_name, f.Ast.f_ret, f.Ast.f_params)
      | Ast.Gvar d ->
        Decl (Ast.Gvar { d with Ast.v_loc = Loc.none; v_init = None })
      | Ast.Gtypedef (n, t, _) -> Decl (Ast.Gtypedef (n, t, Loc.none))
      | Ast.Gstruct (n, fs, _) -> Decl (Ast.Gstruct (n, fs, Loc.none))
      | Ast.Gunion (n, fs, _) -> Decl (Ast.Gunion (n, fs, Loc.none))
      | Ast.Genum (n, cs, _) -> Decl (Ast.Genum (n, cs, Loc.none))
      | Ast.Gfunc_decl (n, r, ps, _) ->
        Decl (Ast.Gfunc_decl (n, r, ps, Loc.none)))
    tu.Ast.tu_globals

(* Two textually identical functions in different places must not share
   diagnostics, whose locations differ; and since the text fixes every
   inner column relative to the start, a cached result never carries a
   stale location. *)
let func_key (file : string) (f : Ast.func) : string option =
  Option.map
    (fun d ->
      Digest.to_hex
        (Digest.string
           (Printf.sprintf "%s:%d:%d:%s" file f.Ast.f_loc.Loc.line
              f.Ast.f_loc.Loc.col d)))
    f.Ast.f_src_digest

type func_fact = {
  ff_name : string;
  ff_key : string option;
  ff_callees : string list;
}

(* the calls {!Callgraph.callees} sees: a plain identifier callee, in
   any top-level expression of the body *)
let callees (f : Ast.func) : string list =
  let seen = Hashtbl.create 16 and names = ref [] in
  let visit (e : Ast.expr) =
    match e.Ast.edesc with
    | Ast.Call ({ Ast.edesc = Ast.Ident n; _ }, _)
      when not (Hashtbl.mem seen n) ->
      Hashtbl.replace seen n ();
      names := n :: !names
    | _ -> ()
  in
  List.iter (Ast.iter_stmt_exprs (Ast.iter_expr visit)) f.Ast.f_body;
  List.rev !names

type t = { i_items : item list; i_digest : string; i_funcs : func_fact array }

(* by content: marshalling with sharing would give two equal interfaces
   that share differently different digests *)
let of_tunit (tu : Ast.tunit) : t =
  let i_items = items tu in
  {
    i_items;
    i_digest =
      Digest.to_hex
        (Digest.string (Marshal.to_string i_items [ Marshal.No_sharing ]));
    i_funcs =
      Array.of_list
        (List.map
           (fun (f : Ast.func) ->
             {
               ff_name = f.Ast.f_name;
               ff_key = func_key f.Ast.f_loc.Loc.file f;
               ff_callees = callees f;
             })
           (Ast.functions tu));
  }

let env_digest (files : t list) : string =
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun i -> i.i_digest) files)))
