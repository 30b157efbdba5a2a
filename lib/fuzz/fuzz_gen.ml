(** Mcfuzz program generator.

    Produces seeded, deterministic, *clean* FLASH-style Clite programs:
    every generated program obeys all nine checker disciplines (buffers
    freed exactly once per path, sends length-consistent and within lane
    allowances, directory entries loaded/written back, simulator hooks in
    place, no floats), so any diagnostic difference after {!Fuzz_mutate}
    seeds a bug is attributable to that bug.

    Unlike {!Skeletons} — hand-shaped handler templates for the paper's
    tables — this generator composes handlers from a pool of independent,
    checker-neutral segments in random order, with random arithmetic,
    branches, loops, struct and pointer traffic in between, then
    materialises the program exactly as xg++ consumed post-cpp text:
    pretty-printed and re-parsed through the full front end. *)

open Cb

type program = {
  seed : int;
  spec : Flash_api.spec;
  raw : Ast.tunit;  (** generated AST, prelude not included *)
  file : string;  (** the file name [src] is parsed under *)
  src : string;  (** prelude + pretty-printed program *)
  tus : Ast.tunit list;  (** [src] parsed and type-annotated *)
}

(* ------------------------------------------------------------------ *)
(* Generation context                                                  *)
(* ------------------------------------------------------------------ *)

type gctx = {
  rng : Rng.t;
  mutable locals : string list;  (** scalar locals, newest first *)
  mutable n_locals : int;
  mutable uses_ptr : bool;
  helpers : string list;  (** callable pure procedures *)
}

let fresh g =
  let v = Printf.sprintf "fzv%d" g.n_locals in
  g.n_locals <- g.n_locals + 1;
  g.locals <- v :: g.locals;
  v

let pick g = match g.locals with [] -> fresh g | l -> Rng.choose g.rng l

let fld r f = Ast.mk_expr (Ast.Field (r, f))
let addrof e = Ast.mk_expr (Ast.Unop (Ast.Addrof, e))
let deref e = Ast.mk_expr (Ast.Unop (Ast.Deref, e))

(* a small integer-typed expression; never touches dirEntry or buffers *)
let rec value g depth =
  if depth <= 0 then atom g
  else
    match Rng.int g.rng 8 with
    | 0 | 1 -> atom g
    | 2 -> value g (depth - 1) +: atom g
    | 3 -> value g (depth - 1) -: atom g
    | 4 -> value g (depth - 1) ^: atom g
    | 5 -> value g (depth - 1) &: num (Rng.range g.rng 1 255)
    | 6 -> value g (depth - 1) <<: num (Rng.range g.rng 1 3)
    | _ -> value g (depth - 1) |: atom g

and atom g =
  match Rng.int g.rng 8 with
  | 0 -> id (pick g)
  | 1 -> num (Rng.range g.rng 0 4095)
  | 2 -> hg "header.nh.misc"
  | 3 -> id "nodeId"
  | 4 -> fld (id "fzState") (Rng.choose g.rng [ "acc"; "mask" ])
  | 5 ->
    Ast.mk_expr (Ast.Index (id "protoStats", id (pick g) &: num 63))
  | 6 -> Ast.mk_expr (Ast.Cond (atom g, atom g, atom g))
  | _ -> id (pick g)

(* ------------------------------------------------------------------ *)
(* Checker-neutral segments                                            *)
(* ------------------------------------------------------------------ *)

let seg_arith g =
  match Rng.int g.rng 4 with
  | 0 -> [ assign (id (pick g)) (value g 2) ]
  | 1 ->
    [ op_assign (Rng.choose g.rng [ Ast.Add; Ast.Bxor; Ast.Bor ])
        (id (pick g)) (value g 1) ]
  | 2 ->
    [ expr (Ast.mk_expr (Ast.Unop (Ast.Postinc, id (pick g)))) ]
  | _ ->
    [ assign
        (Ast.mk_expr (Ast.Index (id "protoStats", id (pick g) &: num 63)))
        (value g 1) ]

(* strings and character literals through DEBUG_PRINT: grammar coverage
   for the printer's C escaping *)
let seg_debug g =
  let strs =
    [ "fz trace"; "line1\nline2"; "tab\there"; "quo\"te"; "back\\slash";
      "cr\rend" ]
  in
  let chars = [ 'A'; 'z'; '0'; '\n'; '\t'; '\''; '\\' ] in
  [
    do_call "DEBUG_PRINT" [ str (Rng.choose g.rng strs); value g 1 ];
    assign (id (pick g))
      (Ast.mk_expr (Ast.Char_lit (Rng.choose g.rng chars)));
  ]

let seg_for g =
  let v = pick g in
  let init = Ast.Fi_expr (Ast.mk_expr (Ast.Assign (id v, num 0))) in
  let cond = id v <: num (Rng.range g.rng 1 7) in
  let step = Ast.mk_expr (Ast.Assign (id v, id v +: num 1)) in
  [
    Ast.mk_stmt
      (Ast.Sfor (Some init, Some cond, Some step, block (seg_arith g)));
  ]

let seg_do g =
  let v = pick g in
  [
    assign (id v) (num (Rng.range g.rng 1 5));
    Ast.mk_stmt
      (Ast.Sdo
         ( block (seg_arith g @ [ assign (id v) (id v -: num 1) ]),
           id v >: num 0 ));
  ]

let seg_switch g =
  [
    sswitch
      (value g 1 &: num 3)
      [ (num 0, seg_arith g); (num 1, seg_arith g) ]
      (Some (seg_arith g));
  ]

let seg_struct g =
  [
    assign (fld (id "fzState") "acc") (value g 1);
    assign (id (pick g)) (fld (id "fzState") "acc" +: fld (id "fzState") "mask");
  ]

let seg_pointer g =
  g.uses_ptr <- true;
  let v = pick g in
  [
    assign (id "fzp") (addrof (id v));
    assign (deref (id "fzp")) (deref (id "fzp") +: num (Rng.range g.rng 1 9));
  ]

let seg_branch g =
  let arm () =
    match Rng.int g.rng 3 with
    | 0 -> seg_arith g
    | 1 -> seg_struct g
    | _ -> seg_arith g @ seg_arith g
  in
  if Rng.bool g.rng then
    [ sif (value g 1 >: value g 1) (arm ()) ]
  else [ sif_else (value g 1 ==: value g 1) (arm ()) (arm ()) ]

(* a bounded countdown loop; never sends, so the lane fixed-point rule
   ignores it *)
let seg_loop g =
  let v = pick g in
  [
    assign (id v) (num (Rng.range g.rng 1 7));
    swhile
      (id v >: num 0)
      (seg_arith g @ [ assign (id v) (id v -: num 1) ]);
  ]

(* helper calls splice a summary into the caller's lane analysis; the
   helpers are pure so the summary is zero *)
let seg_helper_call g =
  match g.helpers with
  | [] -> seg_arith g
  | hs -> [ assign (id (pick g)) (call (Rng.choose g.rng hs) [ value g 1 ]) ]

(* WAIT_FOR_DB_FULL before the first data-buffer read on the path *)
let seg_wait_read g =
  let v = pick g in
  [
    wait_db (id "addr");
    assign (id v) (read_db (id "addr") (4 * Rng.int g.rng 4));
  ]

(* load / modify / write back, all through DIR_ADDR *)
let seg_dir g =
  [
    load_dir (dir_addr (id "addr"));
    op_assign Ast.Bor (hg "dirEntry.vector") (num (1 lsl Rng.int g.rng 8));
    assign (hg "dirEntry.dirty") (num (Rng.int g.rng 2));
    writeback_dir (dir_addr (id "addr"));
  ]

(* a synchronous send on the processor or I/O interface, paired with the
   matching reply wait *)
let seg_sync_send g ~iface =
  let send, wait =
    match iface with
    | `PI -> (pi_send, Flash_api.wait_for_pi_reply)
    | `IO -> (io_send, Flash_api.wait_for_io_reply)
  in
  ignore g;
  [
    len_assign Flash_api.len_nodata;
    send ~wait:Flash_api.w_wait ~flag:Flash_api.f_nodata ();
    do_call wait [];
  ]

(* an extra asynchronous send, kept within the lane allowance by an
   explicit space check *)
let seg_guarded_send g =
  ignore g;
  [
    do_call Flash_api.wait_for_output_space [ num Flash_api.lane_pi ];
    len_assign Flash_api.len_nodata;
    pi_send ~flag:Flash_api.f_nodata ();
  ]

(* segments legal anywhere in a hardware handler (buffer held) *)
let hw_segment g =
  match Rng.int g.rng 13 with
  | 0 -> seg_arith g
  | 1 -> seg_struct g
  | 2 -> seg_pointer g
  | 3 -> seg_branch g
  | 4 -> seg_loop g
  | 5 -> seg_helper_call g
  | 6 -> seg_wait_read g
  | 7 -> seg_dir g
  | 8 -> seg_debug g
  | 9 -> seg_for g
  | 10 -> seg_do g
  | 11 -> seg_switch g
  | _ -> seg_guarded_send g

(* segments legal in a software handler before it allocates (no buffer:
   no sends, no data-buffer reads) *)
let sw_segment g =
  match Rng.int g.rng 10 with
  | 0 -> seg_arith g
  | 1 -> seg_struct g
  | 2 -> seg_pointer g
  | 3 -> seg_branch g
  | 4 -> seg_loop g
  | 5 -> seg_debug g
  | 6 -> seg_for g
  | 7 -> seg_do g
  | 8 -> seg_switch g
  | _ -> seg_helper_call g

(* ------------------------------------------------------------------ *)
(* Epilogues: every handler path ends having freed its buffer          *)
(* ------------------------------------------------------------------ *)

let data_reply_epilogue g =
  let len, op =
    if Rng.bool g.rng then (Flash_api.len_cacheline, "MSG_PUT")
    else (Flash_api.len_word, "MSG_UNCACHED_REPLY")
  in
  [
    len_assign len;
    type_assign op;
    ni_send ~opcode:op ~flag:Flash_api.f_data ();
    free_db ();
  ]

let nak_epilogue g =
  ignore g;
  [
    type_assign Flash_api.msg_nak;
    len_assign Flash_api.len_nodata;
    ni_send ~opcode:Flash_api.msg_nak ~flag:Flash_api.f_nodata ();
    free_db ();
  ]

(* free the incoming buffer, allocate a fresh reply buffer, check the
   allocation, fill and send it *)
let realloc_epilogue g =
  let buf = fresh g in
  [
    free_db ();
    assign (id buf) (call Flash_api.allocate_db []);
    sif (call Flash_api.alloc_failed [ id buf ]) [ sreturn ];
    write_db (id buf) 0 (hg "header.nh.misc");
    len_assign Flash_api.len_cacheline;
    ni_send ~opcode:"MSG_PUT" ~flag:Flash_api.f_data ();
    free_db ();
  ]

let helper_free_epilogue ~free_helper g =
  ignore g;
  [ do_call free_helper [] ]

let hw_epilogue ?free_helper g =
  match (Rng.int g.rng 4, free_helper) with
  | 0, _ -> data_reply_epilogue g
  | 1, _ -> nak_epilogue g
  | 2, _ -> realloc_epilogue g
  | _, Some h -> helper_free_epilogue ~free_helper:h g
  | _, None -> data_reply_epilogue g

(* ------------------------------------------------------------------ *)
(* Whole functions                                                     *)
(* ------------------------------------------------------------------ *)

let hook_of = function
  | Flash_api.Hw_handler -> Flash_api.sim_handler_hook
  | Flash_api.Sw_handler -> Flash_api.sim_swhandler_hook
  | Flash_api.Procedure -> Flash_api.sim_procedure_hook

let handler_prologue kind =
  [ do_call Flash_api.handler_defs []; do_call (hook_of kind) [] ]

let assemble g ~kind ~name body =
  let decls =
    (if g.uses_ptr then [ decl "fzp" (Ctype.Ptr Ctype.Long) ] else [])
    @ List.rev_map (fun v -> decl_long v) g.locals
    @ [ decl_long "addr"; decl_long "src" ]
  in
  let unpack =
    [
      assign (id "addr") (hg "header.nh.address");
      assign (id "src") (hg "header.nh.src");
    ]
  in
  func name (handler_prologue kind @ decls @ unpack @ body)

let mk_gctx rng helpers =
  { rng; locals = []; n_locals = 0; uses_ptr = false; helpers }

(* The anchor handler: carries one instance of every mutation target —
   a wait/read pair, a directory update, a synchronous send — and ends
   with a data reply (no NAK, so a dropped writeback is never pruned). *)
let main_handler rng helpers =
  let g = mk_gctx rng helpers in
  for _ = 1 to Rng.range g.rng 1 3 do
    ignore (fresh g)
  done;
  let anchors =
    [ seg_wait_read g; seg_dir g;
      seg_sync_send g ~iface:(if Rng.bool g.rng then `PI else `IO) ]
  in
  let extras = List.init (Rng.int g.rng 3) (fun _ -> hw_segment g) in
  (* deterministic shuffle of anchor/extra order: anchors are mutually
     independent, so any interleaving stays clean *)
  let rec weave acc pools =
    match List.filter (( <> ) []) pools with
    | [] -> acc
    | pools ->
      let i = Rng.int g.rng (List.length pools) in
      let seg = List.nth pools i in
      let pools = List.filteri (fun j _ -> j <> i) pools in
      weave (acc @ seg) pools
  in
  let body = weave [] (anchors @ extras) in
  assemble g ~kind:Flash_api.Hw_handler ~name:"FzMain"
    (body @ data_reply_epilogue g)

(* A software-scheduled handler: starts without a buffer, allocates one
   (checked), fills it and sends — the alloc-check mutation target. *)
let sched_handler rng helpers =
  let g = mk_gctx rng helpers in
  let middle = List.concat (List.init (Rng.int g.rng 3) (fun _ -> sw_segment g)) in
  let buf = fresh g in
  let body =
    middle
    @ [
        assign (id buf) (call Flash_api.allocate_db []);
        sif (call Flash_api.alloc_failed [ id buf ]) [ sreturn ];
        write_db (id buf) 0 (hg "header.nh.misc");
        len_assign Flash_api.len_cacheline;
        ni_send ~opcode:"MSG_PUTX" ~flag:Flash_api.f_data ();
        free_db ();
      ]
  in
  assemble g ~kind:Flash_api.Sw_handler ~name:"FzSched" body

let aux_handler rng helpers ?free_helper i =
  let g = mk_gctx rng helpers in
  let segs =
    List.concat (List.init (Rng.range g.rng 1 4) (fun _ -> hw_segment g))
  in
  assemble g ~kind:Flash_api.Hw_handler
    ~name:(Printf.sprintf "FzAux%d" i)
    (segs @ hw_epilogue ?free_helper g)

(* pure integer procedure, callable from any handler *)
let calc_helper rng i =
  let g = mk_gctx rng [] in
  let t = fresh g in
  let body =
    [ do_call Flash_api.sim_procedure_hook []; decl_long t ]
    @ List.concat (List.init (Rng.range g.rng 1 3) (fun _ -> seg_arith g))
    @ [ assign (id t) (value g 2); sreturn_e (id t) ]
  in
  {
    (func
       ~ret:Ctype.Long
       ~params:[ ("x", Ctype.Long) ]
       (Printf.sprintf "FzCalc%d" i)
       body)
    with
    Ast.f_loc = Loc.none;
  }

(* a spec-listed freeing routine: ends without the buffer *)
let free_helper_fn () =
  func "FzFreeBuf"
    [ do_call Flash_api.sim_procedure_hook []; free_db () ]

(* ------------------------------------------------------------------ *)
(* Program assembly                                                    *)
(* ------------------------------------------------------------------ *)

let struct_global =
  Ast.Gstruct
    ( "fz_state",
      [ ("acc", Ctype.Long); ("mask", Ctype.Long); ("mode", Ctype.Int) ],
      Loc.none )

let state_global =
  Ast.Gvar
    {
      Ast.v_name = "fzState";
      v_type = Ctype.Struct "fz_state";
      v_init = None;
      v_loc = Loc.none;
      v_static = false;
    }

let handler_spec name =
  {
    Flash_api.h_name = name;
    h_kind = Flash_api.Hw_handler;
    h_lane_allowance = [| 1; 1; 1; 1 |];
    h_no_stack = false;
  }

(** Print a (possibly mutated) raw unit after the prelude and parse it
    back, as [generate] does.  The printer's output always parses, so a
    diagnostic is a printer or parser bug: fail with all of them. *)
let materialize ?(file = "fz.c") (raw : Ast.tunit) : string * Ast.tunit list =
  let src = Prelude.text ^ Pp.tunit_to_string raw in
  match Frontend.parse_strings [ (file, src) ] with
  | tus, [] -> (src, tus)
  | _, diags ->
    failwith
      (String.concat "\n"
         ("Fuzz_gen: a printed unit does not parse:"
         :: List.map Diag.to_string diags))

let generate ?(file = "fz.c") ~seed () : program =
  let rng = Rng.create ~seed in
  let n_calc = Rng.range rng 1 2 in
  let helpers = List.init n_calc (Printf.sprintf "FzCalc%d") in
  let with_free_helper = Rng.bool rng in
  let free_helper = if with_free_helper then Some "FzFreeBuf" else None in
  let n_aux = Rng.range rng 1 2 in
  let funcs =
    List.init n_calc (calc_helper rng)
    @ (if with_free_helper then [ free_helper_fn () ] else [])
    @ [ main_handler rng helpers; sched_handler rng helpers ]
    @ List.init n_aux (aux_handler rng helpers ?free_helper)
  in
  let raw =
    {
      Ast.tu_file = file;
      tu_globals =
        (struct_global :: state_global
        :: List.map (fun f -> Ast.Gfunc f) funcs);
    }
  in
  let hw_names =
    "FzMain" :: List.init n_aux (Printf.sprintf "FzAux%d")
  in
  let spec =
    {
      Flash_api.p_name = Printf.sprintf "fuzz-%d" seed;
      p_handlers =
        List.map handler_spec hw_names
        @ [ { (handler_spec "FzSched") with Flash_api.h_kind = Flash_api.Sw_handler } ];
      p_free_funcs = (match free_helper with Some h -> [ h ] | None -> []);
      p_use_funcs = [];
      p_cond_free_funcs = [];
    }
  in
  let src, tus = materialize ~file raw in
  { seed; spec; raw; file; src; tus }
