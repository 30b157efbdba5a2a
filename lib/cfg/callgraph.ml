(** Whole-program call graph over a set of translation units.

    This is the linking half of the paper's inter-procedural framework: the
    local pass (the metal engine) annotates functions, then a global pass
    links per-function flow graphs by call edges and traverses them.  Calls
    through function pointers are not resolved (the paper's lanes checker is
    conservative and sound only "for straight-line code without function
    pointers"). *)

type call_site = { cs_callee : string; cs_loc : Loc.t }

(* Only the name table is built eagerly: every consumer but the key of
   a whole-program unit asks [find_func] alone, and that key walks the
   functions reachable from the handlers, a quarter of the corpus's
   expressions.  Call sites are collected on demand, from the
   definition [find_func] returns, so building is linear in the number
   of functions and nothing is mutated afterwards. *)
type t = {
  funcs : (string, Ast.func) Hashtbl.t;  (** name -> its last definition *)
  defs : Ast.func list;  (** every definition, in source order *)
}

(* Call sites of [f], in syntactic order. *)
let call_sites_of_func (f : Ast.func) : call_site list =
  let sites = ref [] in
  let visit_expr e =
    Ast.iter_expr
      (fun e ->
        match e.Ast.edesc with
        | Ast.Call ({ edesc = Ast.Ident name; _ }, _) ->
          sites := { cs_callee = name; cs_loc = e.Ast.eloc } :: !sites
        | _ -> ())
      e
  in
  List.iter (fun s -> Ast.iter_stmt_exprs visit_expr s) f.Ast.f_body;
  List.rev !sites

let build (tus : Ast.tunit list) : t =
  let defs = List.concat_map Ast.functions tus in
  let funcs = Hashtbl.create 128 in
  List.iter (fun f -> Hashtbl.replace funcs f.Ast.f_name f) defs;
  { funcs; defs }

let find_func t name = Hashtbl.find_opt t.funcs name

let callees t name : call_site list =
  match find_func t name with Some f -> call_sites_of_func f | None -> []

let functions t : Ast.func list =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.funcs []
  |> List.sort (fun a b -> String.compare a.Ast.f_name b.Ast.f_name)

(** All functions transitively reachable from [roots] (including roots that
    exist in the program). *)
let reachable_from t (roots : string list) : string list =
  let seen = Hashtbl.create 64 in
  let rec go name =
    if (not (Hashtbl.mem seen name)) && Hashtbl.mem t.funcs name then begin
      Hashtbl.replace seen name ();
      List.iter (fun site -> go site.cs_callee) (callees t name)
    end
  in
  List.iter go roots;
  Hashtbl.fold (fun name () acc -> name :: acc) seen []
  |> List.sort String.compare
