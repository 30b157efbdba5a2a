(** Differential oracles over the checking pipeline.

    Every generated program (clean or mutated) is pushed through the
    drivers below, and each must agree with the reference
    {!Registry.run_all} (one checker at a time, a {!Prep.t} per checker
    and function), diagnostic for diagnostic, including order:

    + O1 [mcd-jobs2]: {!Mcd.check_corpus} with two domains;
    + O2 [mcd-jobs4]: the same with four domains;
    + O3 [cache]: a cold-cache run, an immediately repeated warm-cache
      run, and runs against a long-lived cache shared across many
      programs (so entries from *other* programs — and from the clean
      sibling of a mutant — must never leak in) all equal the sequential
      results;
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

(** [check ?shared_cache ~seed ~spec ~tus ()] runs all the oracles and
    returns the disagreements (empty = all pipelines agree).  Also
    returns the sequential results so callers can reuse them. *)
let check ?shared_cache ~seed ~(spec : Flash_api.spec) ~(tus : Ast.tunit list)
    () : (string * Diag.t list) list * failure list =
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
  (* O1/O2: parallel must equal sequential *)
  compare_mcd "mcd-jobs2" (fst (Mcd.check_corpus ~jobs:2 ~spec tus));
  compare_mcd "mcd-jobs4" (fst (Mcd.check_corpus ~jobs:4 ~spec tus));
  (* O3: cold, warm, and shared caches *)
  let cache = Mcd_cache.create () in
  compare_mcd "cache-cold" (fst (Mcd.check_corpus ~cache ~jobs:2 ~spec tus));
  compare_mcd "cache-warm" (fst (Mcd.check_corpus ~cache ~jobs:2 ~spec tus));
  (match shared_cache with
  | Some cache ->
    compare_mcd "cache-shared"
      (fst (Mcd.check_corpus ~cache ~jobs:2 ~spec tus))
  | None -> ());
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
