(** Assembly of the synthetic FLASH protocol corpus.

    [generate ()] produces the five protocols plus the common code:
    deterministic Clite sources (printed, then re-parsed through the full
    front end, exactly as xg++ consumed post-cpp text), the
    protocol-writer-supplied specification each checker needs (handler
    kinds, lane allowances, buffer-discipline tables), and the ground-truth
    manifest of seeded faults. *)

type protocol = {
  name : string;
  config : Profile.config;
  files : (string * string) list;  (** file name, full source text *)
  tus : Ast.tunit list;  (** parsed and type-annotated *)
  spec : Flash_api.spec;
  manifest : Manifest.entry list;
  loc : int;  (** protocol LOC, headers (prelude) excluded *)
}

type t = { protocols : protocol list; seed : int }

(* ------------------------------------------------------------------ *)
(* Handler descriptors                                                 *)
(* ------------------------------------------------------------------ *)

type hdesc = {
  d_name : string;
  d_style : Profile.hstyle;
  d_kind : Flash_api.handler_kind;
  d_realloc : bool;
  d_free_helper : string option;
}

let style_of_base name =
  List.assoc_opt name Profile.base_handlers

(* resolve the style of a (possibly variant, possibly "...2") name *)
let rec resolve_style name =
  match style_of_base name with
  | Some st -> Some st
  | None ->
    let n = String.length name in
    if n > 1 && name.[n - 1] = '2' then
      resolve_style (String.sub name 0 (n - 1))
    else
      List.find_map
        (fun suffix ->
          let sl = String.length suffix in
          if n > sl && String.sub name (n - sl) sl = suffix then
            style_of_base (String.sub name 0 (n - sl))
          else None)
        Profile.variant_suffixes

let is_interv = function Profile.Interv _ -> true | _ -> false

(* The deterministic handler roster for one protocol. *)
let hw_roster (cfg : Profile.config) : hdesc list =
  let mentioned =
    List.map fst cfg.Profile.bugs
    @ cfg.Profile.annot_useful @ cfg.Profile.free_helper_users
  in
  (* special one-off handlers that are not base-name variants *)
  let specials =
    List.filter_map
      (fun name ->
        match name with
        | "NIDebugDrain" | "IOStubFlush" | "SharedStubDrain" ->
          Some (name, Profile.Pass)
        | "NISharingTransfer" -> Some (name, Profile.Len_var)
        | _ -> None)
      mentioned
  in
  let needed_variants =
    List.filter
      (fun name ->
        style_of_base name = None
        && (not (List.mem_assoc name specials))
        && (not (String.length name > 1 && name.[0] = 'S' && name.[1] = 'W'))
        && (not (String.length name > 3 && String.sub name 0 4 = "Mark"))
        && resolve_style name <> None)
      mentioned
  in
  let base = Profile.base_handlers in
  let all_variants =
    List.concat_map
      (fun suffix ->
        List.map (fun (b, st) -> (b ^ suffix, st)) base)
      Profile.variant_suffixes
  in
  (* selection: base + forced variants + enough intervention variants +
     round-robin fill *)
  let selected = ref [] in
  let have name = List.exists (fun (n, _) -> String.equal n name) !selected in
  let add (name, st) = if not (have name) then selected := (name, st) :: !selected
  in
  List.iter add base;
  List.iter add specials;
  List.iter
    (fun name ->
      match resolve_style name with
      | Some st -> add (name, st)
      | None -> ())
    needed_variants;
  (* top up interventions *)
  let count_interv () =
    List.length (List.filter (fun (_, st) -> is_interv st) !selected)
  in
  List.iter
    (fun (name, st) ->
      if is_interv st && count_interv () < cfg.Profile.n_interv then
        add (name, st))
    all_variants;
  (* fill to n_hw with non-intervention variants *)
  List.iter
    (fun (name, st) ->
      if
        List.length !selected < cfg.Profile.n_hw
        && not (is_interv st)
      then add (name, st))
    all_variants;
  let roster = List.rev !selected in
  List.map
    (fun (name, st) ->
      {
        d_name = name;
        d_style = st;
        d_kind = Flash_api.Hw_handler;
        d_realloc = false (* assigned below *);
        d_free_helper =
          (if List.mem name cfg.Profile.free_helper_users then
             Some "SendNakAndFree"
           else None);
      })
    roster

(* mark the first [n_realloc] clean Dir handlers as re-allocating *)
let assign_realloc (cfg : Profile.config) (roster : hdesc list) : hdesc list =
  let remaining = ref cfg.Profile.n_realloc in
  List.map
    (fun d ->
      let buggy = List.mem_assoc d.d_name cfg.Profile.bugs in
      if
        d.d_style = Profile.Dir && !remaining > 0 && (not buggy)
        && d.d_free_helper = None
      then begin
        decr remaining;
        { d with d_realloc = true }
      end
      else d)
    roster

let sw_names flavor =
  match (flavor : Skeletons.flavor) with
  | Skeletons.Common ->
    [ "SWSharedFlush"; "SWSharedScrub"; "SWSharedStats"; "SWSharedTick" ]
  | _ ->
    [
      "SWPageMigrate";
      "SWTimerTick";
      "SWReplyQueue";
      "SWDebugDump";
      "SWRefill";
      "SWStatsFlush";
      "SWIOFlush";
      "SWRetryQueue";
    ]

let dir_helper_names =
  [ "MarkLinePending"; "MarkLineBusy"; "SetOwnerHint"; "ClearPendingBit";
    "SetMasterHint" ]

(* ------------------------------------------------------------------ *)
(* Function assembly                                                   *)
(* ------------------------------------------------------------------ *)

let take n xs =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n xs

let bug_of cfg name =
  match List.assoc_opt name cfg.Profile.bugs with
  | Some b -> b
  | None ->
    if List.mem name cfg.Profile.annot_useful then Skeletons.Buf_annot_useful
    else Skeletons.No_bug

(* build one handler function *)
let make_handler cfg rng (d : hdesc) : Ast.func =
  let g = Skeletons.gctx ~rng ~flavor:cfg.Profile.flavor in
  (* seed scratch locals so padding has material to work with *)
  for _ = 1 to 3 do
    ignore (Skeletons.fresh_local g)
  done;
  let bug = bug_of cfg d.d_name in
  let lo, hi = cfg.Profile.pad in
  let pad =
    (* each protocol has one famously long handler *)
    if String.equal d.d_name "NILocalGetX"
       || String.equal d.d_name "SharedHomeGetX"
    then cfg.Profile.long_handler_pad
    else Rng.range rng lo hi
  in
  let blo, bhi = cfg.Profile.branches in
  (* big handlers carry the most branches, as in the real protocols: the
     path-length average is path-weighted, so the long handlers dominate *)
  let branches =
    if pad >= cfg.Profile.long_handler_pad then bhi + 2
    else blo + ((pad - lo) * (bhi - blo + 1) / max 1 (hi - lo + 1))
  in
  (* buffer reads in reply handlers: the shared base handlers read the
     message body; protocol-specific variants mostly do not (that is what
     keeps the per-protocol Applied counts of Table 2 so different) *)
  (* SCI: only the shared base handlers consult the home directory; the
     variants work on the distributed sharing list (this is why the
     paper's sci Applied count for the directory checker is so small) *)
  let use_dir =
    match cfg.Profile.flavor with
    | Skeletons.Sci ->
      style_of_base d.d_name <> None
      || bug = Skeletons.Dir_abstraction_fp
      || bug = Skeletons.Dir_spec_nak
    | Skeletons.Common ->
      (* the shared code has essentially no directory traffic (paper
         Table 6: one application in total) *)
      false
    | _ -> true
  in
  let reply_reads =
    if cfg.Profile.flavor = Skeletons.Sci then
      if String.equal d.d_name "NIRemotePut" then 2 else 0
    else if style_of_base d.d_name <> None then cfg.Profile.reply_reads
    else 0
  in
  let core =
    match (bug, d.d_style) with
    | (Skeletons.Buf_minor | Skeletons.Hook_unimplemented), _ ->
      Skeletons.passthru_body g ~bug
    | Skeletons.Len_data_mismatch, Profile.Dir ->
      (* the eager-mode handlers: get-path handlers whose rare queue-full
         corner inherits a stale length *)
      Skeletons.uncached_body g ~bug ~pad ~branches ~write:false ()
    | _, Profile.Dir ->
      Skeletons.dir_consult_body g ~realloc:d.d_realloc ~use_dir
        ~dir_extra:cfg.Profile.dir_extra ?free_helper:d.d_free_helper ~bug
        ~pad ~branches ()
    | _, Profile.Reply style_reads ->
      let reads = min style_reads reply_reads in
      Skeletons.reply_receive_body g ~bug ~pad ~branches ~reads
    | _, Profile.Interv iface ->
      Skeletons.intervention_body g ~bug ~pad ~branches ~iface
    | _, Profile.Unc write ->
      Skeletons.uncached_body g ~use_dir ~bug ~pad ~branches ~write ()
    | _, Profile.Wb -> Skeletons.writeback_body g ~use_dir ~bug ~pad ~branches ()
    | _, Profile.Inval -> Skeletons.inval_body g ~use_dir ~bug ~pad ~branches ()
    | _, Profile.Pass -> Skeletons.passthru_body g ~bug
    | _, Profile.Len_var -> Skeletons.len_var_body g ~pad
  in
  let no_stack = d.d_style = Profile.Pass in
  let sw = d.d_kind = Flash_api.Sw_handler in
  let prologue = Skeletons.prologue ~kind:d.d_kind ~bug in
  let no_stack_stmts =
    if no_stack then [ Cb.do_call Flash_api.no_stack [] ] else []
  in
  let unpack =
    if sw then []
    else
      [
        Cb.assign (Cb.id "addr") (Cb.hg "header.nh.address");
        Cb.assign (Cb.id "src") (Cb.hg "header.nh.src");
      ]
  in
  let decls =
    (if sw then [] else [ Cb.decl_long "addr"; Cb.decl_long "src" ])
    @ List.rev_map (fun v -> Cb.decl_long v) g.Skeletons.locals
  in
  Cb.func d.d_name (prologue @ no_stack_stmts @ decls @ unpack @ core)

let make_sw_handler cfg rng ~name ~alloc : Ast.func =
  let g = Skeletons.gctx ~rng ~flavor:cfg.Profile.flavor in
  for _ = 1 to 2 do
    ignore (Skeletons.fresh_local g)
  done;
  let bug = bug_of cfg name in
  let lo, hi = cfg.Profile.pad in
  let pad = Rng.range rng lo hi in
  let blo, bhi = cfg.Profile.branches in
  let branches = Rng.range rng blo bhi in
  let core = Skeletons.sw_body g ~bug ~pad ~branches ~alloc in
  let prologue = Skeletons.prologue ~kind:Flash_api.Sw_handler ~bug in
  let decls = List.rev_map (fun v -> Cb.decl_long v) g.Skeletons.locals in
  Cb.func name (prologue @ decls @ core)

let make_proc cfg rng ~name ~style : Ast.func =
  let g = Skeletons.gctx ~rng ~flavor:cfg.Profile.flavor in
  for _ = 1 to 2 do
    ignore (Skeletons.fresh_local g)
  done;
  let bug = bug_of cfg name in
  let lo, hi = cfg.Profile.pad in
  let pad = max 2 (Rng.range rng lo hi) in
  let core = Skeletons.proc_body g ~style ~bug ~pad in
  let prologue = Skeletons.prologue ~kind:Flash_api.Procedure ~bug in
  let decls = List.rev_map (fun v -> Cb.decl_long v) g.Skeletons.locals in
  let ret, params =
    match style with
    | Skeletons.P_cond_free -> (Ctype.Int, [])
    | Skeletons.P_compute | Skeletons.P_switch _ ->
      (Ctype.Long, [ ("x", Ctype.Long) ])
    | Skeletons.P_use_helper -> (Ctype.Void, [ ("addrArg", Ctype.Long) ])
    | _ -> (Ctype.Void, [])
  in
  Cb.func ~ret ~params name (prologue @ decls @ core)

(* the procedure roster *)
let proc_roster (cfg : Profile.config) : (string * Skeletons.proc_style) list
    =
  let fixed =
    [
      ("SendNakAndFree", Skeletons.P_free_helper);
      ("DropAndNak", Skeletons.P_free_helper);
      ("TryFreeBuffer", Skeletons.P_cond_free);
    ]
    @ List.init cfg.Profile.n_use_helpers (fun i ->
          (Printf.sprintf "PeekMessageBody%d" (i + 1), Skeletons.P_use_helper))
    @ List.map
        (fun n -> (n, Skeletons.P_dir_helper))
        (take cfg.Profile.n_dir_helpers dir_helper_names)
    @ List.init cfg.Profile.n_list_walk (fun i ->
          (Printf.sprintf "WalkSharerList%d" (i + 1), Skeletons.P_list_walk))
  in
  let n_fill = max 0 (cfg.Profile.n_proc - List.length fixed) in
  let fill =
    List.init n_fill (fun i ->
        if cfg.Profile.proc_switch_cases > 0 then
          ( Printf.sprintf "DispatchOp%d" (i + 1),
            Skeletons.P_switch cfg.Profile.proc_switch_cases )
        else if i mod 3 = 1 then
          (Printf.sprintf "ComputeMask%d" (i + 1), Skeletons.P_compute)
        else (Printf.sprintf "UpdateStats%d" (i + 1), Skeletons.P_stats))
  in
  fixed @ fill

(* ------------------------------------------------------------------ *)
(* Common-code roster                                                  *)
(* ------------------------------------------------------------------ *)

let common_hw_roster (cfg : Profile.config) : hdesc list =
  let mk name st =
    {
      d_name = name;
      d_style = st;
      d_kind = Flash_api.Hw_handler;
      d_realloc = false;
      d_free_helper =
        (if List.mem name cfg.Profile.free_helper_users then
           Some "SendNakAndFree"
         else None);
    }
  in
  let named =
    [
      mk "SharedHomeGet" Profile.Dir;
      mk "SharedHomeGetX" Profile.Dir;
      mk "SharedWBFlushA" Profile.Wb;
      mk "SharedWBFlushB" Profile.Wb;
      mk "SharedWBFlushC" Profile.Wb;
      mk "SharedWBFlushD" Profile.Wb;
      mk "SharedWBKeepA" Profile.Wb;
      mk "SharedWBKeepB" Profile.Wb;
      mk "SharedWBKeepC" Profile.Wb;
      mk "SharedInterventionA" (Profile.Interv `PI);
      mk "SharedInterventionB" (Profile.Interv `PI);
      mk "SharedDebugDump" (Profile.Reply 0);
      mk "SharedReplyA" (Profile.Reply 0);
      mk "SharedReplyB" (Profile.Reply 0);
      mk "SharedStubDrain" Profile.Pass;
      mk "SharedInvalA" Profile.Inval;
    ]
  in
  let fill =
    List.init
      (max 0 (cfg.Profile.n_hw - List.length named))
      (fun i ->
        if i mod 2 = 0 then mk (Printf.sprintf "SharedFwd%d" (i + 1)) Profile.Pass
        else mk (Printf.sprintf "SharedHome%d" (i + 1)) Profile.Dir)
  in
  named @ fill

(* ------------------------------------------------------------------ *)
(* Protocol assembly                                                   *)
(* ------------------------------------------------------------------ *)

let lane_allowance (st : Profile.hstyle) : int array =
  match st with
  | Profile.Dir -> [| 0; 0; 1; 1 |]
  | Profile.Reply _ -> [| 1; 0; 0; 0 |]
  | Profile.Interv `PI -> [| 1; 0; 0; 1 |]
  | Profile.Interv `IO -> [| 0; 1; 0; 1 |]
  | Profile.Unc _ | Profile.Wb | Profile.Inval | Profile.Len_var ->
    [| 0; 0; 0; 1 |]
  | Profile.Pass -> [| 0; 0; 1; 0 |]

let sw_allowance = [| 0; 0; 0; 1 |]

let file_of_func name =
  if String.length name >= 2 && String.sub name 0 2 = "PI" then "pi"
  else if String.length name >= 2 && String.sub name 0 2 = "NI" then "ni"
  else if String.length name >= 2 && String.sub name 0 2 = "IO" then "io"
  else if String.length name >= 2 && String.sub name 0 2 = "SW" then "sw"
  else "util"

let generate_protocol ~seed (name : string) (cfg : Profile.config) : protocol
    =
  let rng = Rng.create ~seed:(seed + Hashtbl.hash name) in
  let hw =
    if cfg.Profile.flavor = Skeletons.Common then common_hw_roster cfg
    else assign_realloc cfg (hw_roster cfg)
  in
  let sw = take cfg.Profile.n_sw (sw_names cfg.Profile.flavor) in
  let procs = proc_roster cfg in
  let funcs =
    List.map (fun d -> make_handler cfg rng d) hw
    @ List.mapi
        (fun i n -> make_sw_handler cfg rng ~name:n
            ~alloc:(i < cfg.Profile.n_sw_alloc))
        sw
    @ List.map (fun (n, style) -> make_proc cfg rng ~name:n ~style) procs
  in
  (* bucket into files and print *)
  let buckets : (string, Ast.func list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun f ->
      let b = file_of_func f.Ast.f_name in
      let existing = Option.value ~default:[] (Hashtbl.find_opt buckets b) in
      Hashtbl.replace buckets b (f :: existing))
    funcs;
  let files =
    List.filter_map
      (fun b ->
        match Hashtbl.find_opt buckets b with
        | None -> None
        | Some fs ->
          let body =
            String.concat "\n\n"
              (List.rev_map (fun f -> Format.asprintf "%a" Pp.pp_func f) fs)
          in
          Some
            ( Printf.sprintf "%s_%s.c" name b,
              Prelude.text ^ "\n" ^ body ^ "\n" ))
      [ "pi"; "ni"; "io"; "sw"; "util" ]
  in
  let tus =
    match Frontend.parse_strings files with
    | tus, [] -> tus
    | _, diags ->
      failwith
        (String.concat "\n"
           ("Corpus: generated source does not parse:"
           :: List.map Diag.to_string diags))
  in
  let loc =
    List.fold_left
      (fun acc (_, src) -> acc + Frontend.loc_count src - Prelude.loc)
      0 files
  in
  let spec =
    {
      Flash_api.p_name = name;
      p_handlers =
        List.map
          (fun d ->
            {
              Flash_api.h_name = d.d_name;
              h_kind = Flash_api.Hw_handler;
              h_lane_allowance = lane_allowance d.d_style;
              h_no_stack = d.d_style = Profile.Pass;
            })
          hw
        @ List.map
            (fun n ->
              {
                Flash_api.h_name = n;
                h_kind = Flash_api.Sw_handler;
                h_lane_allowance = sw_allowance;
                h_no_stack = false;
              })
            sw;
      p_free_funcs = [ "SendNakAndFree"; "DropAndNak" ];
      p_use_funcs =
        List.init cfg.Profile.n_use_helpers (fun i ->
            Printf.sprintf "PeekMessageBody%d" (i + 1));
      p_cond_free_funcs = [ "TryFreeBuffer" ];
    }
  in
  { name; config = cfg; files; tus; spec; manifest = cfg.Profile.manifest;
    loc }

(** Generate the full corpus: five protocols plus common code. *)
let generate ?(seed = 0xF1A54) () : t =
  {
    protocols =
      List.map (fun (name, cfg) -> generate_protocol ~seed name cfg)
        Profile.all;
    seed;
  }

(** Write the corpus to a directory as .c files (for browsing or for
    checking with the CLI). *)
let write_to_dir t dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun p ->
      List.iter
        (fun (file, src) ->
          let oc = open_out (Filename.concat dir file) in
          output_string oc src;
          close_out oc)
        p.files)
    t.protocols
