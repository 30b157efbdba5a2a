(** Fault-injection campaigns against the hardened checking pipeline.

    Each injection plants one seeded fault — source truncation or garbage
    splice, cache corruption at an arbitrary offset, a checker exception
    via the engine's test hook, a starved unit budget, a killed pool
    worker — runs the pipeline, and asserts the containment invariants:

    - no uncaught exception ever escapes the pipeline entry points;
    - no hang (a generous per-injection wall cap);
    - diagnostics on the unaffected remainder are deterministic — a
      function whose content hash is unchanged by the fault gets exactly
      the diagnostics the clean run gave it;
    - the containment layer *reports* what it dropped (parse/lex
      diagnostics, an ["internal"] entry for degraded units);
    - a corrupted or truncated cache loads as a cold cache and a re-check
      from it reproduces the clean run's output byte for byte.

    The campaign is deterministic in its seed ({!Rng} is splitmix64), so
    a failure report names a reproducible [(seed, index)] pair.

    Injections run against a small synthetic protocol (three files,
    functions with known violations) so a 500-injection campaign stays
    fast. *)

(* ------------------------------------------------------------------ *)
(* The target program                                                  *)
(* ------------------------------------------------------------------ *)

(* Three files with seeded violations (a leak, a missing handler
   prologue) plus clean functions, so both the findings and the
   no-finding remainder are exercised.  Each file gets the prelude, as
   mcheck gives real inputs. *)
let synth_sources : (string * string) list =
  [
    ( "fi_alpha.c",
      "void handler_alpha(void) {\n  long b;\n  b = ALLOCATE_BUF();\n\
      \  FREE_BUF(b);\n}\n\
       void handler_beta(void) {\n  long b;\n  b = ALLOCATE_BUF();\n}\n" );
    ( "fi_gamma.c",
      "void handler_gamma(void) {\n  long b;\n  b = ALLOCATE_BUF();\n\
      \  if (b) {\n    FREE_BUF(b);\n  }\n}\n\
       void helper_delta(void) {\n  long x;\n  x = 1;\n  x = x + 1;\n}\n" );
    ( "fi_epsilon.c",
      "void handler_epsilon(void) {\n  long b;\n  b = ALLOCATE_BUF();\n\
      \  FREE_BUF(b);\n}\n\
       void handler_zeta(void) {\n  long y;\n  y = 2;\n  y = y * 3;\n}\n" );
  ]

let with_prelude files =
  List.map (fun (name, src) -> (name, Prelude.text ^ src)) files

(* the CLI's default spec: void/no-arg functions are handlers *)
let spec_of_tus (tus : Ast.tunit list) : Flash_api.spec =
  {
    Flash_api.p_name = "<faultinject>";
    p_handlers =
      List.concat_map
        (fun tu ->
          List.filter_map
            (fun (f : Ast.func) ->
              if Ctype.equal f.Ast.f_ret Ctype.Void && f.Ast.f_params = []
              then
                Some
                  {
                    Flash_api.h_name = f.Ast.f_name;
                    h_kind = Flash_api.Hw_handler;
                    h_lane_allowance = [| 1; 1; 1; 1 |];
                    h_no_stack = false;
                  }
              else None)
            (Ast.functions tu))
        tus;
    p_free_funcs = [];
    p_use_funcs = [];
    p_cond_free_funcs = [];
  }

(* ------------------------------------------------------------------ *)
(* Faults and plans                                                    *)
(* ------------------------------------------------------------------ *)

type fault =
  | Truncate_source of { file_idx : int; at : int }
  | Splice_garbage of { file_idx : int; at : int }
  | Flip_cache_byte of { at : int }
  | Truncate_cache of { at : int }
  | Clean_cache_control  (** no mutation: the load must be warm *)
  | Raise_in_checker of { checker : string; func : string }
  | Kill_worker of { task : int }
  | Exhaust_fuel of { fuel : int }
  | Exhaust_deadline

type klass = Parser | Cache | Checker | Budget

let klass_of_fault = function
  | Truncate_source _ | Splice_garbage _ -> Parser
  | Flip_cache_byte _ | Truncate_cache _ | Clean_cache_control -> Cache
  | Raise_in_checker _ | Kill_worker _ -> Checker
  | Exhaust_fuel _ | Exhaust_deadline -> Budget

let klass_name = function
  | Parser -> "parser"
  | Cache -> "cache"
  | Checker -> "checker"
  | Budget -> "budget"

let fault_to_string = function
  | Truncate_source { file_idx; at } ->
    Printf.sprintf "truncate-source file=%d at=%d" file_idx at
  | Splice_garbage { file_idx; at } ->
    Printf.sprintf "splice-garbage file=%d at=%d" file_idx at
  | Flip_cache_byte { at } -> Printf.sprintf "flip-cache-byte at=%d" at
  | Truncate_cache { at } -> Printf.sprintf "truncate-cache at=%d" at
  | Clean_cache_control -> "clean-cache-control"
  | Raise_in_checker { checker; func } ->
    Printf.sprintf "raise-in-checker %s/%s" checker func
  | Kill_worker { task } -> Printf.sprintf "kill-worker task=%d" task
  | Exhaust_fuel { fuel } -> Printf.sprintf "exhaust-fuel fuel=%d" fuel
  | Exhaust_deadline -> "exhaust-deadline"

type outcome = {
  fault : fault;
  index : int;  (** position in the campaign, for reproduction *)
  ok : bool;
  detail : string;  (** violated invariant, [""] when ok *)
  wall_ms : float;
}

type summary = {
  seed : int;
  total : int;
  failed : int;
  by_class : (string * int * int) list;  (** class, injections, failures *)
  failures : outcome list;
  wall_ms : float;
}

(* ------------------------------------------------------------------ *)
(* Invariant plumbing                                                  *)
(* ------------------------------------------------------------------ *)

(* Diagnostics that count as containment reporting, not findings. *)
let excluded_checker name =
  List.mem name Robust.internal_checkers || String.equal name "lanes"

(* one comparable line per diagnostic *)
let diag_line (d : Diag.t) = Diag.to_string d

(* per-checker results as sorted comparable lines, for full equality *)
let snapshot (results : (string * Diag.t list) list) : string list =
  results
  |> List.concat_map (fun (name, ds) ->
         List.map (fun d -> name ^ "|" ^ diag_line d) ds)
  |> List.sort String.compare

(* (file, func) -> content digest, over every function of a parsed run *)
let digests (tus : Ast.tunit list) : (string * string, string) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (tu : Ast.tunit) ->
      List.iter
        (fun (f : Ast.func) ->
          Hashtbl.replace h
            (tu.Ast.tu_file, f.Ast.f_name)
            (Mcd.func_digest tu.Ast.tu_file f))
        (Ast.functions tu))
    tus;
  h

(* findings grouped per (checker, file, func), sorted *)
let grouped (results : (string * Diag.t list) list) :
    (string * string * string, string list) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (name, ds) ->
      if not (excluded_checker name) then
        List.iter
          (fun (d : Diag.t) ->
            let key = (name, d.Diag.loc.Loc.file, d.Diag.func) in
            let prev = Option.value (Hashtbl.find_opt h key) ~default:[] in
            Hashtbl.replace h key (diag_line d :: prev))
          ds)
    results;
  Hashtbl.iter (fun k v -> Hashtbl.replace h k (List.sort String.compare v)) h;
  h

(* The remainder invariant: every function whose content hash survived
   the fault must carry exactly its baseline diagnostics.  [except] is
   the injected (checker, function) pair itself, which is *supposed* to
   change (it degrades). *)
let check_remainder ?except ~base_digests ~base_groups ~tus ~results () :
    string option =
  let now_digests = digests tus in
  let now_groups = grouped results in
  let bad = ref None in
  let checker_names =
    List.filter (fun n -> not (excluded_checker n)) Registry.names
  in
  Hashtbl.iter
    (fun (file, func) digest ->
      if !bad = None then
        match Hashtbl.find_opt base_digests (file, func) with
        | Some base_digest when String.equal base_digest digest ->
          List.iter
            (fun cname ->
              if !bad = None && except <> Some (cname, func) then
                let get h =
                  Option.value
                    (Hashtbl.find_opt h (cname, file, func))
                    ~default:[]
                in
                let b = get base_groups and n = get now_groups in
                if b <> n then
                  bad :=
                    Some
                      (Printf.sprintf
                         "remainder drift: %s on %s/%s changed (%d -> %d \
                          diagnostic(s))"
                         cname file func (List.length b) (List.length n)))
            checker_names
        | _ -> ())
    now_digests;
  !bad

exception Hang of float

let wall_cap_ms = 60_000.

let timed f =
  let t0 = Mcobs.now_us () in
  let r = f () in
  let dt = (Mcobs.now_us () -. t0) /. 1000. in
  if dt > wall_cap_ms then raise (Hang dt);
  (r, dt)

(* ------------------------------------------------------------------ *)
(* Campaign state: baseline and cache container, built once            *)
(* ------------------------------------------------------------------ *)

type target = {
  t_files : (string * string) list;  (** with prelude *)
  t_tus : Ast.tunit list;
  t_spec : Flash_api.spec;
  t_base : (string * Diag.t list) list;  (** clean sequential run *)
  t_base_snap : string list;
  t_base_digests : (string * string, string) Hashtbl.t;
  t_base_groups : (string * string * string, string list) Hashtbl.t;
  t_container : string;  (** a saved, valid cache file's bytes *)
}

let build_target () : target =
  let files = with_prelude synth_sources in
  let tus =
    match Frontend.parse_strings files with
    | tus, [] -> tus
    | _, diags ->
      failwith
        (String.concat "\n"
           ("Faultinject: the target source does not parse:"
           :: List.map Diag.to_string diags))
  in
  let spec = spec_of_tus tus in
  let base = Registry.run_all_product ~spec tus in
  (* populate a cache and capture its on-disk container *)
  let cache = Mcd_cache.create () in
  let _ = Mcd.check_corpus ~cache ~jobs:1 ~spec tus in
  let tmp = Filename.temp_file "faultinject" ".cache" in
  Mcd_cache.save cache tmp;
  let container =
    let ic = open_in_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove tmp;
  {
    t_files = files;
    t_tus = tus;
    t_spec = spec;
    t_base = base;
    t_base_snap = snapshot base;
    t_base_digests = digests tus;
    t_base_groups = grouped base;
    t_container = container;
  }

(* ------------------------------------------------------------------ *)
(* Running one injection                                               *)
(* ------------------------------------------------------------------ *)

let garbage = " @#$ {{{ ;; )) \"unterminated /* nope "

let mutate_file (files : (string * string) list) idx f =
  List.mapi (fun i (name, src) -> if i = idx then (name, f src) else (name, src)) files

let run_parser_fault (t : target) fault : string option =
  let files =
    match fault with
    | Truncate_source { file_idx; at } ->
      mutate_file t.t_files file_idx (fun src ->
          String.sub src 0 (min at (String.length src)))
    | Splice_garbage { file_idx; at } ->
      mutate_file t.t_files file_idx (fun src ->
          let at = min at (String.length src) in
          String.sub src 0 at ^ garbage
          ^ String.sub src at (String.length src - at))
    | _ -> assert false
  in
  (* totality: parse never raises, checking completes *)
  let tus, _parse_diags = Frontend.parse_strings files in
  let results = Registry.run_all_product ~spec:t.t_spec tus in
  check_remainder ~base_digests:t.t_base_digests ~base_groups:t.t_base_groups
    ~tus ~results ()

let run_cache_fault (t : target) fault : string option =
  let data =
    match fault with
    | Flip_cache_byte { at } ->
      let b = Bytes.of_string t.t_container in
      let at = at mod Bytes.length b in
      Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xFF));
      Bytes.to_string b
    | Truncate_cache { at } ->
      String.sub t.t_container 0 (at mod String.length t.t_container)
    | Clean_cache_control -> t.t_container
    | _ -> assert false
  in
  let tmp = Filename.temp_file "faultinject" ".cache" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin tmp in
      output_string oc data;
      close_out oc;
      (* the guarded load: never raises, cold on any corruption *)
      let cache = Mcd_cache.load tmp in
      let mutated = fault <> Clean_cache_control in
      if mutated && Mcd_cache.size cache <> 0 then
        Some
          (Printf.sprintf "corrupt cache loaded %d entries instead of 0"
             (Mcd_cache.size cache))
      else if (not mutated) && Mcd_cache.size cache = 0 then
        Some "pristine cache loaded cold"
      else begin
        (* a re-check from whatever loaded must reproduce the clean run *)
        let results, _ =
          Mcd.check_corpus ~cache ~jobs:1 ~spec:t.t_spec t.t_tus
        in
        if snapshot results <> t.t_base_snap then
          Some "output after cache fault differs from the clean run"
        else None
      end)

let run_checker_fault (t : target) fault : string option =
  match fault with
  | Raise_in_checker { checker; func } ->
    (* [fired] distinguishes a real injection from one planted on a path
       the pipeline never reaches (a checker that does not traverse that
       function): the latter must leave the output untouched *)
    let fired = ref false in
    Engine.set_fault_hook
      (Some
         (fun ~checker:c ~func:f ->
           let hit = c = checker && f = func in
           if hit then fired := true;
           hit));
    Fun.protect
      ~finally:(fun () -> Engine.set_fault_hook None)
      (fun () ->
        let results, stats =
          Mcd.check_corpus ~jobs:2 ~spec:t.t_spec t.t_tus
        in
        if not !fired then
          if snapshot results <> t.t_base_snap then
            Some "unreached fault site still changed the output"
          else None
        else if stats.Mcd.units_faulted = 0 then
          Some "injected checker fault was not reported as a faulted unit"
        else
          let internal =
            Option.value (List.assoc_opt "internal" results) ~default:[]
          in
          if internal = [] then
            Some "faulted unit produced no internal diagnostic"
          else
            check_remainder ~except:(checker, func)
              ~base_digests:t.t_base_digests ~base_groups:t.t_base_groups
              ~tus:t.t_tus ~results ()
            |> Option.map (fun m -> "with injected checker fault: " ^ m))
  | Kill_worker { task } ->
    Mcd_pool.set_test_kill (Some (fun ~worker ~task:ti -> worker = 1 && ti = task));
    Fun.protect
      ~finally:(fun () -> Mcd_pool.set_test_kill None)
      (fun () ->
        let results, _stats = Mcd.check_corpus ~jobs:2 ~spec:t.t_spec t.t_tus in
        (* the coordinator re-claims the dead worker's units, so the
           output is the clean run's, exactly *)
        if snapshot results <> t.t_base_snap then
          Some "output after worker kill differs from the clean run"
        else None)
  | _ -> assert false

let run_budget_fault (t : target) fault : string option =
  let budget =
    match fault with
    | Exhaust_fuel { fuel } ->
      { Engine.fuel = Some fuel; deadline_ms = None }
    | Exhaust_deadline -> { Engine.fuel = None; deadline_ms = Some 0.0001 }
    | _ -> assert false
  in
  let results, stats =
    Mcd.check_corpus ~budget ~jobs:1 ~spec:t.t_spec t.t_tus
  in
  (* totality is the main invariant; when a unit did blow the budget,
     the run must say so *)
  let internal =
    Option.value (List.assoc_opt "internal" results) ~default:[]
  in
  if stats.Mcd.units_faulted > 0 && internal = [] then
    Some "budget exhaustion was not reported as an internal diagnostic"
  else if stats.Mcd.units_faulted = 0 && internal <> [] then
    Some "internal diagnostics without any faulted unit"
  else None

let run_one (t : target) ~index fault : outcome =
  let run () =
    match klass_of_fault fault with
    | Parser -> run_parser_fault t fault
    | Cache -> run_cache_fault t fault
    | Checker -> run_checker_fault t fault
    | Budget -> run_budget_fault t fault
  in
  match timed run with
  | Some detail, wall_ms -> { fault; index; ok = false; detail; wall_ms }
  | None, wall_ms -> { fault; index; ok = true; detail = ""; wall_ms }
  | exception Hang dt ->
    {
      fault;
      index;
      ok = false;
      detail = Printf.sprintf "hang: injection took %.0f ms" dt;
      wall_ms = dt;
    }
  | exception exn ->
    {
      fault;
      index;
      ok = false;
      detail = "uncaught exception: " ^ Printexc.to_string exn;
      wall_ms = 0.;
    }

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

let per_function_checkers =
  List.filter_map
    (fun (c : Registry.checker) ->
      match c.Registry.phase with
      | Registry.Per_function _ -> Some c.Registry.name
      | Registry.Whole_program _ -> None)
    Registry.all

let synth_funcs (t : target) =
  List.concat_map (fun tu -> Ast.functions tu) t.t_tus
  |> List.map (fun (f : Ast.func) -> f.Ast.f_name)

(* one fault of the given class, drawn from [rng] *)
let draw (t : target) rng (k : klass) : fault =
  match k with
  | Parser ->
    let file_idx = Rng.int rng (List.length t.t_files) in
    let len = String.length (List.nth t.t_files file_idx |> snd) in
    if Rng.bool rng then Truncate_source { file_idx; at = Rng.int rng len }
    else Splice_garbage { file_idx; at = Rng.int rng len }
  | Cache ->
    let len = String.length t.t_container in
    (match Rng.int rng 10 with
    | 0 -> Clean_cache_control
    | r when r < 6 -> Flip_cache_byte { at = Rng.int rng len }
    | _ -> Truncate_cache { at = Rng.int rng len })
  | Checker ->
    if Rng.percent rng 20 then Kill_worker { task = Rng.int rng 8 }
    else
      Raise_in_checker
        {
          checker = Rng.choose rng per_function_checkers;
          func = Rng.choose rng (synth_funcs t);
        }
  | Budget ->
    if Rng.percent rng 25 then Exhaust_deadline
    else Exhaust_fuel { fuel = 1 + Rng.int rng 50 }

let all_classes = [ Parser; Cache; Checker; Budget ]

let klass_of_name = function
  | "parser" -> Some Parser
  | "cache" -> Some Cache
  | "checker" -> Some Checker
  | "budget" -> Some Budget
  | _ -> None

(* the default mix: parser and cache faults dominate (they are the
   cheap, high-surface classes), checker and budget ride along *)
let class_at i =
  match i mod 10 with
  | 0 | 1 | 2 | 3 -> Parser
  | 4 | 5 | 6 | 7 -> Cache
  | 8 -> Checker
  | _ -> Budget

(* ------------------------------------------------------------------ *)
(* The campaign                                                        *)
(* ------------------------------------------------------------------ *)

let campaign ?(seed = 0xFA17) ?(count = 500) ?(classes = all_classes) () :
    summary =
  let t0 = Mcobs.now_us () in
  let t = build_target () in
  let rng = Rng.create ~seed in
  let outcomes = ref [] in
  let planned = ref 0 in
  let i = ref 0 in
  while !planned < count do
    let k = class_at !i in
    incr i;
    if List.mem k classes then begin
      let fault = draw t rng k in
      outcomes := run_one t ~index:!planned fault :: !outcomes;
      incr planned
    end
  done;
  let outcomes = List.rev !outcomes in
  let failures = List.filter (fun o -> not o.ok) outcomes in
  let by_class =
    List.map
      (fun k ->
        let mine =
          List.filter (fun o -> klass_of_fault o.fault = k) outcomes
        in
        ( klass_name k,
          List.length mine,
          List.length (List.filter (fun o -> not o.ok) mine) ))
      all_classes
  in
  {
    seed;
    total = List.length outcomes;
    failed = List.length failures;
    by_class;
    failures;
    wall_ms = (Mcobs.now_us () -. t0) /. 1000.;
  }

let pp_summary ppf (s : summary) =
  Format.fprintf ppf
    "fault campaign: %d injection(s), %d failure(s), seed %#x, %.0f ms@."
    s.total s.failed s.seed s.wall_ms;
  List.iter
    (fun (name, n, bad) ->
      Format.fprintf ppf "  %-8s %4d injected, %d failed@." name n bad)
    s.by_class;
  List.iter
    (fun o ->
      Format.fprintf ppf "  FAIL #%d [%s] %s: %s@." o.index
        (klass_name (klass_of_fault o.fault))
        (fault_to_string o.fault) o.detail)
    s.failures

let summary_to_json (s : summary) : string =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" s.seed);
  Buffer.add_string b (Printf.sprintf "  \"injections\": %d,\n" s.total);
  Buffer.add_string b (Printf.sprintf "  \"failures\": %d,\n" s.failed);
  Buffer.add_string b (Printf.sprintf "  \"wall_ms\": %.1f,\n" s.wall_ms);
  Buffer.add_string b "  \"by_class\": {\n";
  List.iteri
    (fun i (name, n, bad) ->
      Buffer.add_string b
        (Printf.sprintf "    \"%s\": { \"injected\": %d, \"failed\": %d }%s\n"
           name n bad
           (if i = List.length s.by_class - 1 then "" else ",")))
    s.by_class;
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"failed_injections\": [";
  List.iteri
    (fun i o ->
      Buffer.add_string b
        (Printf.sprintf "%s\n    { \"index\": %d, \"fault\": %S, \
                         \"detail\": %S }"
           (if i = 0 then "" else ",")
           o.index (fault_to_string o.fault) o.detail))
    s.failures;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b
