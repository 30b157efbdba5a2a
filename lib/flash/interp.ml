(** An interpreter for Clite protocol code against the MAGIC machine model.

    This is the execution half of the FlashLite substitute: handlers parsed
    by the front end run directly on a model node (buffer pool, lanes,
    directory copy, message header), with every MAGIC macro given its
    hardware semantics.  Runtime failures (double frees, fill races, lane
    overflows, length/data mismatches) surface as {!fault}s — the same
    classes the static checkers hunt, so the simulator-vs-checker
    comparison of the paper's motivation can be made concrete. *)

exception Fatal of string

type fault =
  | F_buffer of Buffers.fault
  | F_lane of Lanes.fault
  | F_len_mismatch of string  (** opcode of the inconsistent send *)
  | F_fatal of string

(** The mutable per-node state handlers run against. *)
type node = {
  id : int;
  n_nodes : int;
  buffers : Buffers.t;
  lanes : Lanes.t;
  globals : (string, int) Hashtbl.t;
      (** handler globals addressed by dotted path ("header.nh.len",
          "dirEntry.vector", plain names for scalars) *)
  mutable current_buffer : Buffers.buffer option;
  mutable db_synchronized : bool;  (** WAIT_FOR_DB_FULL called *)
  mutable outstanding_wait : string option;  (** interface of a W_WAIT send *)
  mutable faults : fault list;
  mutable sent : Message.t list;  (** sends recorded this handler run *)
  mutable hook_calls : int;
  intervention_data : int -> int;
      (** what the processor/IO interface answers to an intervention *)
  mutable custom : string -> int list -> int option;
      (** simulator-provided builtins (memory and cache services) *)
}

let create_node ?(n_nodes = 4) ?(buffer_count = 16)
    ?(intervention_data = fun _ -> 0) id : node =
  {
    id;
    n_nodes;
    buffers = Buffers.create ~size:buffer_count ();
    lanes = Lanes.create ();
    globals = Hashtbl.create 32;
    current_buffer = None;
    db_synchronized = false;
    outstanding_wait = None;
    faults = [];
    sent = [];
    hook_calls = 0;
    intervention_data;
    custom = (fun _ _ -> None);
  }

let fault node f = node.faults <- f :: node.faults

let global node path = Option.value ~default:0 (Hashtbl.find_opt node.globals path)
let set_global node path v = Hashtbl.replace node.globals path v

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)
(* ------------------------------------------------------------------ *)

type env = {
  node : node;
  program : Callgraph.t;  (** for calls to protocol subroutines *)
  mutable scopes : (string, int ref) Hashtbl.t list;
  consts : (string, int) Hashtbl.t;  (** enum constants from the program *)
  mutable steps : int;  (** fuel: bounds loops and recursion *)
  max_steps : int;
}

exception Return_value of int
exception Break_loop
exception Continue_loop
exception Out_of_fuel

let push_scope env = env.scopes <- Hashtbl.create 8 :: env.scopes
let pop_scope env =
  match env.scopes with [] -> () | _ :: rest -> env.scopes <- rest

let declare env name v =
  match env.scopes with
  | scope :: _ -> Hashtbl.replace scope name (ref v)
  | [] ->
    let scope = Hashtbl.create 8 in
    Hashtbl.replace scope name (ref v);
    env.scopes <- [ scope ]

let find_var env name : int ref option =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
      match Hashtbl.find_opt scope name with
      | Some r -> Some r
      | None -> go rest)
  in
  go env.scopes

let tick env =
  env.steps <- env.steps + 1;
  if env.steps > env.max_steps then raise Out_of_fuel

(* dotted path of a HANDLER_GLOBALS argument *)
let rec global_path (e : Ast.expr) : string option =
  match e.Ast.edesc with
  | Ast.Ident name -> Some name
  | Ast.Field (inner, f) ->
    Option.map (fun p -> p ^ "." ^ f) (global_path inner)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Builtins: the MAGIC macros                                          *)
(* ------------------------------------------------------------------ *)

let length_of_int v : Message.length =
  if v = 0 then Message.Len_nodata
  else if v = 1 then Message.Len_word
  else Message.Len_cacheline

let opcode_name_of_int (env : env) v : string =
  let all = Flash_api.msg_opcodes_request @ Flash_api.msg_opcodes_reply in
  match
    List.find_opt
      (fun op -> Hashtbl.find_opt env.consts op = Some v)
      all
  with
  | Some op -> op
  | None -> Printf.sprintf "OP_%d" v

let do_send env ~macro ~(args : int list) : unit =
  let node = env.node in
  let header_len = length_of_int (global node "header.nh.len") in
  let opcode, has_data, wait_flag =
    match (macro, args) with
    | m, [ flag; _keep; _swap; wait; _dec; _null ]
      when String.equal m Flash_api.pi_send || String.equal m Flash_api.io_send
      ->
      let op = if String.equal m Flash_api.pi_send then "PI_REPLY" else "IO_REPLY" in
      (op, flag <> 0, wait)
    | _, [ ty; flag; _keep; wait; _dec; _null ] ->
      (opcode_name_of_int env ty, flag <> 0, wait)
    | _, _ -> ("OP_BAD", false, 0)
  in
  (* the hardware reads the length field, not the has-data flag: this is
     exactly the decoupling the msg_length checker protects *)
  let lane =
    match
      Flash_api.lane_of_send ~macro
        ~opcode:(if String.equal macro Flash_api.ni_send then Some opcode else None)
    with
    | Some l -> l
    | None -> Flash_api.lane_net_request
  in
  let payload_words = Message.length_words header_len in
  let data =
    match node.current_buffer with
    | Some b when payload_words > 0 ->
      Array.init payload_words (fun i ->
          Buffers.read node.buffers b ~synchronized:true ~word:i)
    | _ -> Array.make payload_words 0
  in
  let msg =
    {
      Message.opcode;
      src = node.id;
      dst = global node "header.nh.dest";
      addr = global node "header.nh.address";
      len = header_len;
      has_data;
      data;
      lane;
    }
  in
  if not (Message.length_consistent msg) then
    fault node (F_len_mismatch opcode);
  if not (Lanes.send node.lanes msg) then
    (match Lanes.faults node.lanes with
    | f :: _ -> fault node (F_lane f)
    | [] -> ());
  node.sent <- msg :: node.sent;
  if wait_flag = 1 then
    node.outstanding_wait <-
      Some (if String.equal macro Flash_api.io_send then "IO" else "PI")

(* returns Some value when [name] is a builtin *)
let builtin env (name : string) (arg_exprs : Ast.expr list)
    (args : int list) : int option =
  let node = env.node in
  let one = match args with a :: _ -> a | [] -> 0 in
  if String.equal name Flash_api.handler_globals then begin
    match arg_exprs with
    | [ e ] -> (
      match global_path e with
      | Some path -> Some (global node path)
      | None -> Some 0)
    | _ -> Some 0
  end
  else if List.mem name Flash_api.send_macros then begin
    do_send env ~macro:name ~args;
    Some 0
  end
  else if String.equal name Flash_api.wait_for_db_full then begin
    Option.iter Buffers.mark_full node.current_buffer;
    node.db_synchronized <- true;
    Some 0
  end
  else if
    String.equal name Flash_api.miscbus_read_db
    || String.equal name Flash_api.miscbus_read_db_old
  then begin
    match node.current_buffer with
    | Some b ->
      let word = match args with _ :: w :: _ -> w | _ -> 0 in
      let v =
        Buffers.read node.buffers b ~synchronized:node.db_synchronized ~word
      in
      (match Buffers.faults node.buffers with
      | _ ->
        (* surface any newly recorded pool fault *)
        ());
      Some v
    | None ->
      fault node (F_buffer (Buffers.Use_after_free (-1)));
      Some 0
  end
  else if String.equal name Flash_api.miscbus_write_db then begin
    (match node.current_buffer with
    | Some b ->
      let word, value =
        match args with _ :: w :: v :: _ -> (w, v) | _ -> (0, 0)
      in
      Buffers.write node.buffers b ~word ~value
    | None -> fault node (F_buffer (Buffers.Use_after_free (-1))));
    Some 0
  end
  else if String.equal name Flash_api.allocate_db then begin
    match Buffers.allocate node.buffers with
    | Some b ->
      (match node.current_buffer with
      | Some _ ->
        (* rule 4: the handler just lost track of its current buffer *)
        ()
      | None -> ());
      node.current_buffer <- Some b;
      node.db_synchronized <- true;
      Some b.Buffers.index
    | None ->
      fault node (F_buffer Buffers.Pool_exhausted);
      Some (-1)
  end
  else if String.equal name Flash_api.alloc_failed then
    Some (if one < 0 then 1 else 0)
  else if String.equal name Flash_api.free_db then begin
    (match node.current_buffer with
    | Some b ->
      Buffers.free node.buffers b;
      if b.Buffers.refcount = 0 then node.current_buffer <- None
    | None -> fault node (F_buffer (Buffers.Double_free (-1))));
    Some 0
  end
  else if String.equal name Flash_api.db_inc_refcount then begin
    Option.iter Buffers.incr_refcount node.current_buffer;
    Some 0
  end
  else if String.equal name Flash_api.load_dir_entry then Some 0
    (* directory copies are provided by the simulator before dispatch *)
  else if String.equal name Flash_api.writeback_dir_entry then begin
    set_global node "dirEntry.written_back" 1;
    Some 0
  end
  else if String.equal name Flash_api.dir_addr_macro then Some (one * 8)
  else if String.equal name Flash_api.wait_for_output_space then
    (* the simulator models the suspension (custom service); standalone
       interpretation treats it as an immediate grant *)
    Some (Option.value ~default:0 (node.custom name args))
  else if
    String.equal name Flash_api.wait_for_pi_reply
    || String.equal name Flash_api.wait_for_io_reply
  then begin
    (* the interface answers with the intervention data *)
    node.outstanding_wait <- None;
    set_global node "header.nh.misc"
      (node.intervention_data (global node "header.nh.address"));
    Some 0
  end
  else if String.equal name "OUTPUT_QUEUE_FULL" then
    Some (if Lanes.space node.lanes one = 0 then 1 else 0)
  else if
    List.mem name
      [
        Flash_api.handler_defs;
        Flash_api.sim_handler_hook;
        Flash_api.sim_swhandler_hook;
        Flash_api.sim_procedure_hook;
        Flash_api.handler_prologue;
        Flash_api.no_stack;
        Flash_api.set_stackptr;
        Flash_api.ann_has_buffer;
        Flash_api.ann_no_free_needed;
      ]
  then begin
    node.hook_calls <- node.hook_calls + 1;
    Some 0
  end
  else if String.equal name "FATAL_ERROR" then
    raise (Fatal "unimplemented handler invoked")
  else if String.equal name "DEBUG_PRINT" then Some 0
  else if String.equal name "ALLOC_LINK" then Some (one lor 0x1000)
  else if String.equal name "LINK_INSERT" then
    Some (match args with h :: l :: _ -> (h lxor l) lor 1 | _ -> 1)
  else if String.equal name "LINK_NEXT" then Some (one lsr 1)
  else if String.equal name "LIST_CLEAR" then Some 0
  else if String.equal name "BACKOUT_REQUEST" then Some 0
  else None

(* ------------------------------------------------------------------ *)
(* Expression and statement evaluation                                 *)
(* ------------------------------------------------------------------ *)

let to_bool v = v <> 0
let of_bool b = if b then 1 else 0

let rec eval (env : env) (e : Ast.expr) : int =
  tick env;
  match e.Ast.edesc with
  | Ast.Int_lit (v, _) -> Int64.to_int v
  | Ast.Float_lit (v, _) -> int_of_float v
  | Ast.Str_lit _ -> 0
  | Ast.Char_lit c -> Char.code c
  | Ast.Ident name -> (
    match find_var env name with
    | Some r -> !r
    | None -> (
      match Hashtbl.find_opt env.consts name with
      | Some v -> v
      | None -> Option.value ~default:0
          (Hashtbl.find_opt env.node.globals name)))
  | Ast.Call ({ edesc = Ast.Ident name; _ }, args) -> eval_call env name args
  | Ast.Call (_, _) -> 0
  | Ast.Unop (op, a) -> eval_unop env op a
  | Ast.Binop (op, a, b) -> eval_binop env op a b
  | Ast.Assign (lhs, rhs) ->
    let v = eval env rhs in
    assign env lhs v;
    v
  | Ast.Op_assign (op, lhs, rhs) ->
    let cur = eval env lhs in
    let v = apply_binop op cur (eval env rhs) in
    assign env lhs v;
    v
  | Ast.Cond (c, t, f) -> if to_bool (eval env c) then eval env t else eval env f
  | Ast.Cast (_, a) -> eval env a
  | Ast.Field (_, _) | Ast.Arrow (_, _) ->
    (* bare struct fields only appear under HANDLER_GLOBALS *)
    0
  | Ast.Index (a, i) ->
    (* arrays are modelled as indexed globals *)
    let base =
      match a.Ast.edesc with Ast.Ident n -> n | _ -> "<arr>"
    in
    let idx = eval env i in
    global env.node (Printf.sprintf "%s[%d]" base idx)
  | Ast.Comma (a, b) ->
    ignore (eval env a);
    eval env b
  | Ast.Sizeof_expr _ -> 4
  | Ast.Sizeof_type t -> Ctype.sizeof t

and eval_unop env op a =
  match op with
  | Ast.Neg -> -eval env a
  | Ast.Not -> of_bool (not (to_bool (eval env a)))
  | Ast.Bnot -> lnot (eval env a)
  | Ast.Deref -> eval env a
  | Ast.Addrof -> eval env a
  | Ast.Preinc ->
    let v = eval env a + 1 in
    assign env a v;
    v
  | Ast.Predec ->
    let v = eval env a - 1 in
    assign env a v;
    v
  | Ast.Postinc ->
    let v = eval env a in
    assign env a (v + 1);
    v
  | Ast.Postdec ->
    let v = eval env a in
    assign env a (v - 1);
    v

and apply_binop op a b =
  match op with
  | Ast.Add -> a + b
  | Ast.Sub -> a - b
  | Ast.Mul -> a * b
  | Ast.Div -> if b = 0 then 0 else a / b
  | Ast.Mod -> if b = 0 then 0 else a mod b
  | Ast.Shl -> a lsl (b land 62)
  | Ast.Shr -> a asr (b land 62)
  | Ast.Lt -> of_bool (a < b)
  | Ast.Gt -> of_bool (a > b)
  | Ast.Le -> of_bool (a <= b)
  | Ast.Ge -> of_bool (a >= b)
  | Ast.Eq -> of_bool (a = b)
  | Ast.Ne -> of_bool (a <> b)
  | Ast.Band -> a land b
  | Ast.Bxor -> a lxor b
  | Ast.Bor -> a lor b
  | Ast.Land | Ast.Lor -> assert false (* short-circuited below *)

and eval_binop env op a b =
  match op with
  | Ast.Land -> if to_bool (eval env a) then of_bool (to_bool (eval env b)) else 0
  | Ast.Lor -> if to_bool (eval env a) then 1 else of_bool (to_bool (eval env b))
  | _ ->
    (* left-to-right, like the MIPS code the handlers compiled to *)
    let va = eval env a in
    let vb = eval env b in
    apply_binop op va vb

and assign env (lhs : Ast.expr) (v : int) : unit =
  match lhs.Ast.edesc with
  | Ast.Ident name -> (
    match find_var env name with
    | Some r -> r := v
    | None -> set_global env.node name v)
  | Ast.Call ({ edesc = Ast.Ident hg; _ }, [ arg ])
    when String.equal hg Flash_api.handler_globals -> (
    match global_path arg with
    | Some path -> set_global env.node path v
    | None -> ())
  | Ast.Index (a, i) ->
    let base = match a.Ast.edesc with Ast.Ident n -> n | _ -> "<arr>" in
    let idx = eval env i in
    set_global env.node (Printf.sprintf "%s[%d]" base idx) v
  | Ast.Unop (Ast.Deref, inner) -> assign env inner v
  | _ -> ()

and eval_call env name (args : Ast.expr list) : int =
  let argv = List.map (eval env) args in
  match builtin env name args argv with
  | Some v -> v
  | None -> (
    match env.node.custom name argv with
    | Some v -> v
    | None -> (
      match Callgraph.find_func env.program name with
      | Some f -> call_function env f argv
      | None -> 0))

and call_function env (f : Ast.func) (argv : int list) : int =
  push_scope env;
  List.iteri
    (fun i (pname, _) ->
      if pname <> "" then
        declare env pname (Option.value ~default:0 (List.nth_opt argv i)))
    f.Ast.f_params;
  let result =
    try
      exec_stmts env f.Ast.f_body;
      0
    with Return_value v -> v
  in
  pop_scope env;
  result

and exec_stmts env stmts = List.iter (exec_stmt env) stmts

and exec_stmt env (s : Ast.stmt) : unit =
  tick env;
  match s.Ast.sdesc with
  | Ast.Sexpr e -> ignore (eval env e)
  | Ast.Sdecl d ->
    let v = match d.Ast.v_init with Some e -> eval env e | None -> 0 in
    declare env d.Ast.v_name v
  | Ast.Sblock body ->
    push_scope env;
    (try exec_stmts env body
     with exn ->
       pop_scope env;
       raise exn);
    pop_scope env
  | Ast.Sif (c, t, f) ->
    if to_bool (eval env c) then exec_stmt env t
    else Option.iter (exec_stmt env) f
  | Ast.Swhile (c, body) ->
    (try
       while to_bool (eval env c) do
         try exec_stmt env body with Continue_loop -> ()
       done
     with Break_loop -> ())
  | Ast.Sdo (body, c) ->
    (try
       let continue = ref true in
       while !continue do
         (try exec_stmt env body with Continue_loop -> ());
         continue := to_bool (eval env c)
       done
     with Break_loop -> ())
  | Ast.Sfor (init, cond, step, body) ->
    push_scope env;
    (match init with
    | Some (Ast.Fi_expr e) -> ignore (eval env e)
    | Some (Ast.Fi_decl d) ->
      let v = match d.Ast.v_init with Some e -> eval env e | None -> 0 in
      declare env d.Ast.v_name v
    | None -> ());
    (try
       while
         match cond with Some c -> to_bool (eval env c) | None -> true
       do
         (try exec_stmt env body with Continue_loop -> ());
         Option.iter (fun e -> ignore (eval env e)) step
       done
     with Break_loop -> ());
    pop_scope env
  | Ast.Sswitch (e, body) -> exec_switch env e body
  | Ast.Scase _ | Ast.Sdefault -> ()
  | Ast.Sreturn (Some e) -> raise (Return_value (eval env e))
  | Ast.Sreturn None -> raise (Return_value 0)
  | Ast.Sbreak -> raise Break_loop
  | Ast.Scontinue -> raise Continue_loop
  | Ast.Sgoto _ ->
    (* goto is supported by the checkers but not by the interpreter;
       the golden protocols do not use it *)
    ()
  | Ast.Slabel _ | Ast.Snull -> ()

and exec_switch env scrutinee body =
  let v = eval env scrutinee in
  let stmts = match body.Ast.sdesc with Ast.Sblock b -> b | _ -> [ body ] in
  (* find the matching case (or default) and execute with fall-through *)
  let rec find i found_default =
    if i >= List.length stmts then
      if found_default >= 0 then Some found_default else None
    else
      match (List.nth stmts i).Ast.sdesc with
      | Ast.Scase ce when eval env ce = v -> Some i
      | Ast.Sdefault -> find (i + 1) i
      | _ -> find (i + 1) found_default
  in
  match find 0 (-1) with
  | None -> ()
  | Some start ->
    (try
       List.iteri
         (fun i s -> if i > start then exec_stmt env s)
         stmts
     with Break_loop -> ())

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Gather enum constants so protocol code can refer to them. *)
let consts_of_program (tus : Ast.tunit list) : (string, int) Hashtbl.t =
  let consts = Hashtbl.create 64 in
  List.iter
    (fun tu ->
      List.iter
        (function
          | Ast.Genum (_, items, _) ->
            let next = ref 0 in
            List.iter
              (fun (name, value) ->
                let v = match value with Some v -> v | None -> !next in
                Hashtbl.replace consts name v;
                next := v + 1)
              items
          | _ -> ())
        tu.Ast.tu_globals)
    tus;
  consts

let make_env ?(max_steps = 200_000) ~node ~program ~consts () : env =
  { node; program; scopes = [ Hashtbl.create 8 ]; consts; steps = 0;
    max_steps }

(** Run one handler to completion on [node].  Returns the faults recorded
    during this run (newest first) and the messages sent. *)
let run_handler ?(max_steps = 200_000) ~(node : node)
    ~(program : Callgraph.t) ~(consts : (string, int) Hashtbl.t)
    (handler : Ast.func) : fault list * Message.t list =
  let env = make_env ~max_steps ~node ~program ~consts () in
  let before_pool_faults = List.length (Buffers.faults node.buffers) in
  let before_faults = node.faults in
  node.sent <- [];
  (try ignore (call_function env handler [])
   with
  | Fatal msg -> fault node (F_fatal msg)
  | Out_of_fuel -> fault node (F_fatal "handler exceeded its fuel budget"));
  (* surface buffer-pool faults newly recorded inside the pool *)
  let pool_faults = Buffers.faults node.buffers in
  List.iteri
    (fun i f -> if i >= before_pool_faults then fault node (F_buffer f))
    pool_faults;
  let new_faults =
    let rec take acc = function
      | rest when rest == before_faults -> List.rev acc
      | f :: rest -> take (f :: acc) rest
      | [] -> List.rev acc
    in
    take [] node.faults
  in
  (new_faults, List.rev node.sent)
