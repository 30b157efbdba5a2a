(** Differential oracles over the checking pipeline.

    Every generated program (clean or mutated) is pushed through the
    drivers below, and each must agree with the reference
    {!Registry.run_all} (one checker at a time, a {!Prep.t} per checker
    and function), diagnostic for diagnostic, including order:

    + O1 [mcd-jobs2]: {!Mcd.check_corpus} with two domains, on the
      program's sources parsed on two domains too ([parse-jobs2]: that
      parse must marshal to the same bytes as the one-domain parse);
    + O2 [mcd-jobs4]: the same with four domains;
    + O3 [cache]: a cold-cache run, an immediately repeated warm-cache
      run, and runs against a long-lived cache shared across many
      programs (so entries from *other* programs — and from the clean
      sibling of a mutant — must never leak in) all equal the sequential
      results; and [cache-file]: the program split into two files,
      checked by fresh {!Mcheck_api.Session}s on one cache file — a cold
      fill, then a warm run after a function of the first file gains an
      [NI_SEND] — must print what a session without a cache prints;
    + O4 [product] and [mcd-jobs1]: the production kernel
      ({!Registry.check_function}: one shared {!Prep.t} per function, one
      product-automaton scan, the dirty machines rerun) through its
      sequential driver {!Registry.run_all_product} and through
      {!Mcd.check_corpus} at one domain must equal the reference too;
    + O5 [roundtrip]: pretty-print, re-lex, re-parse, re-check: printing
      must reach a fixpoint, the AST must survive structurally, and the
      re-checked diagnostics must match modulo source locations. *)

type failure = {
  f_seed : int;
  f_oracle : string;
  f_detail : string;
}

let pp_failure ppf f =
  Format.fprintf ppf "seed %d: oracle %s: %s" f.f_seed f.f_oracle f.f_detail

(* the order-sensitive rendering used for Mcd comparisons *)
let render (results : (string * Diag.t list) list) : string list =
  List.concat_map
    (fun (checker, ds) ->
      List.map (fun d -> checker ^ " | " ^ Diag.to_string d) ds)
    results

(* the location-free multiset used for roundtrip comparisons *)
let keyset (results : (string * Diag.t list) list) : string list =
  List.concat_map (fun (_, ds) -> List.map Diag.key ds) results
  |> List.sort String.compare

let first_diff (a : string list) (b : string list) : string =
  let rec go i a b =
    match (a, b) with
    | [], [] -> "lists equal?"
    | x :: _, [] -> Printf.sprintf "extra at %d: %s" i x
    | [], y :: _ -> Printf.sprintf "missing at %d: %s" i y
    | x :: a, y :: b ->
      if String.equal x y then go (i + 1) a b
      else Printf.sprintf "at %d: %S vs %S" i x y
  in
  go 0 a b

let seq_check ~spec tus = Registry.run_all ~spec tus

(* the leg of O3 that goes through a cache file: the functions of [tu]
   are split between two files, so the warm run parses the edited file
   and reuses the other, whose flow graphs the lanes unit then decodes
   when the edit is inside its closure.  Returns the warm and the cold
   rendering of the edited program. *)
let file_backed ~seed (tu : Ast.tunit) : (string list * string list) option =
  let n_funcs = List.length (Ast.functions tu) in
  if n_funcs < 2 then None
  else begin
    (* the globals before the [n_funcs / 2]-th function go to the first
       file, the rest to the second *)
    let rec split k acc = function
      | Ast.Gfunc _ :: _ as rest when k = n_funcs / 2 -> (List.rev acc, rest)
      | (Ast.Gfunc _ as g) :: rest -> split (k + 1) (g :: acc) rest
      | g :: rest -> split k (g :: acc) rest
      | [] -> (List.rev acc, [])
    in
    let first, second = split 0 [] tu.Ast.tu_globals in
    let send =
      match
        Frontend.parse
          (Prelude.text
         ^ "void S(void) { NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, 0); }")
      with
      | tu, [] -> (List.hd (Ast.functions tu)).Ast.f_body
      | _ -> invalid_arg "Fuzz_oracle.file_backed: the send does not parse"
    in
    let target = seed mod (n_funcs / 2) in
    let edited =
      let k = ref (-1) in
      List.map
        (function
          | Ast.Gfunc f ->
            incr k;
            if !k = target then Ast.Gfunc (Ast.with_body f (send @ f.Ast.f_body))
            else Ast.Gfunc f
          | g -> g)
        first
    in
    let dir = Filename.temp_dir "mcfuzz" "" in
    let write name globals =
      let path = Filename.concat dir name in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (Pp.tunit_to_string { Ast.tu_file = name; tu_globals = globals }));
      path
    in
    let cache = Filename.concat dir "check.cache" in
    let check incremental paths =
      let s =
        Mcheck_api.Session.create
          ~config:
            {
              Mcheck_api.default_config with
              Mcheck_api.jobs = 2;
              incremental;
              cache_file = (if incremental then Some cache else None);
            }
          ()
      in
      Fun.protect
        ~finally:(fun () -> Mcheck_api.Session.close s)
        (fun () ->
          List.map
            (Format.asprintf "%a" Diag.pp_explain)
            (Mcheck_api.report_diags (Mcheck_api.Session.check_files s paths)))
    in
    let verbosity = Mcobs.get_verbosity () in
    Mcobs.set_verbosity Mcobs.Quiet;
    Fun.protect
      ~finally:(fun () ->
        Mcobs.set_verbosity verbosity;
        let rec remove path =
          if Sys.is_directory path then begin
            Array.iter
              (fun n -> remove (Filename.concat path n))
              (Sys.readdir path);
            Sys.rmdir path
          end
          else Sys.remove path
        in
        remove dir)
      (fun () ->
        let paths = [ write "fz_a.c" first; write "fz_b.c" second ] in
        ignore (check true paths);
        ignore (write "fz_a.c" edited);
        Some (check true paths, check false paths))
  end

(** [check ?shared_cache ?srcs ~seed ~spec ~tus ()] runs all the oracles
    and returns the disagreements (empty = all pipelines agree).  [srcs]
    are the (file, source) pairs [tus] was parsed from on one domain;
    without them O1/O2 schedule [tus] as given.  Also returns the
    sequential results so callers can reuse them. *)
let check ?shared_cache ?srcs ~seed ~(spec : Flash_api.spec)
    ~(tus : Ast.tunit list) () : (string * Diag.t list) list * failure list =
  let failures = ref [] in
  let fail oracle detail =
    failures := { f_seed = seed; f_oracle = oracle; f_detail = detail }
      :: !failures
  in
  let seq = seq_check ~spec tus in
  let seq_r = render seq in
  let compare_mcd oracle results =
    let r = render results in
    if r <> seq_r then fail oracle (first_diff r seq_r)
  in
  (* O1/O2: parallel must equal sequential, from the parse on *)
  let parsed_at domains =
    match srcs with
    | None -> tus
    | Some srcs ->
      let par = Frontend.parse_strings ~domains srcs in
      let bytes x = Marshal.to_string x [ Marshal.No_sharing ] in
      if bytes (fst par) <> bytes tus then
        fail
          (Printf.sprintf "parse-jobs%d" domains)
          "the parallel parse differs from the one-domain parse";
      fst par
  in
  compare_mcd "mcd-jobs2" (fst (Mcd.check_corpus ~jobs:2 ~spec (parsed_at 2)));
  compare_mcd "mcd-jobs4" (fst (Mcd.check_corpus ~jobs:4 ~spec (parsed_at 4)));
  (* O3: cold, warm, and shared caches *)
  let cache = Mcd_cache.create () in
  compare_mcd "cache-cold" (fst (Mcd.check_corpus ~cache ~jobs:2 ~spec tus));
  compare_mcd "cache-warm" (fst (Mcd.check_corpus ~cache ~jobs:2 ~spec tus));
  (match shared_cache with
  | Some cache ->
    compare_mcd "cache-shared"
      (fst (Mcd.check_corpus ~cache ~jobs:2 ~spec tus))
  | None -> ());
  (match tus with
  | [ tu ] -> (
    match file_backed ~seed tu with
    | Some (warm, cold) when warm <> cold ->
      fail "cache-file" (first_diff warm cold)
    | _ -> ())
  | _ -> ());
  (* O4: the kernel's sequential drivers must equal the reference *)
  compare_mcd "product" (Registry.run_all_product ~spec tus);
  compare_mcd "mcd-jobs1" (fst (Mcd.check_corpus ~jobs:1 ~spec tus));
  (* O5: print -> re-lex -> re-parse -> re-check *)
  let printed = List.map Pp.tunit_to_string tus in
  let reparsed =
    List.map2
      (fun tu src -> Frontend.parse ~file:tu.Ast.tu_file src)
      tus printed
  in
  (match List.concat_map snd reparsed with
  | _ :: _ as diags ->
    fail "roundtrip-parse" (String.concat "\n" (List.map Diag.to_string diags))
  | [] ->
    let tus2 = List.map fst reparsed in
    let printed2 = List.map Pp.tunit_to_string tus2 in
    if not (List.for_all2 String.equal printed printed2) then
      fail "roundtrip-fixpoint"
        (first_diff
           (List.concat_map (String.split_on_char '\n') printed2)
           (List.concat_map (String.split_on_char '\n') printed));
    if not (List.for_all2 Ast.equal_tunit tus tus2) then
      fail "roundtrip-ast" "re-parsed unit differs structurally";
    let seq2 = seq_check ~spec tus2 in
    let k1 = keyset seq and k2 = keyset seq2 in
    if k1 <> k2 then fail "roundtrip-diags" (first_diff k2 k1));
  (seq, List.rev !failures)
