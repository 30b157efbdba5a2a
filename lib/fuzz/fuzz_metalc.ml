(** O7 [metalc]: the production metal path must equal the interpreter.

    The three in-tree specs are loaded twice — through {!Mrun.compile}
    (parser → typed IR → lowered machine → {!Registry.of_sm} checker)
    and through {!Mdsl.load}, the interpreter kept as the reference —
    and every program the fuzzer produces is checked both ways: the
    three checkers together through {!Mcd.check_jobs} at one and at two
    domains (one shared {!Prep.t} per function, the product scan, the
    pool — what [mcheck --metal A --metal B] runs), and each interpreted
    machine alone through {!Engine.check}, concatenated in spec order.
    The rendered diagnostics (order included) must be byte-identical;
    since {!Fuzz_oracle.keyset} is a projection of the same diagnostics,
    key sets are byte-identical a fortiori.

    [sweep] is the one-shot fixed-input pass — the five corpus
    protocols and both golden-protocol variants — run once per fuzz
    session before the seeded loop; [oracle] is the per-program hook
    shaped for {!Fuzz_driver.run}'s [extra_oracle]. *)

type t = {
  specs : (string * Registry.checker * string Sm.t) list;
      (** name, production checker, interpreted machine *)
}

let spec_names = [ "wait_for_db"; "msglen_check"; "refcount" ]

(* the in-tree metal/ directory: up from the working directory (the
   test binaries run in _build/default/<dir>), else up from the
   executable itself, so a binary in the checkout finds it from any
   working directory *)
let find_spec_dir () =
  let rec upward dir =
    let d = Filename.concat dir "metal" in
    if Sys.file_exists (Filename.concat d "wait_for_db.metal") then Some d
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else upward parent
  in
  match upward (Sys.getcwd ()) with
  | Some d -> Some d
  | None -> upward (Filename.dirname Sys.executable_name)

let create () : (t, string) result =
  match find_spec_dir () with
  | None -> Error "metalc oracle: cannot locate the in-tree metal/ directory"
  | Some dir ->
    let load1 name =
      let path = Filename.concat dir (name ^ ".metal") in
      let src = In_channel.with_open_bin path In_channel.input_all in
      match (Mrun.compile ~file:path src, Mdsl.load ~file:path src) with
      | Ok c, i -> Ok (name, c, i)
      | Error es, _ ->
        Error
          (Printf.sprintf "metalc oracle: %s: %s" path
             (String.concat "; " (List.map Mir.render_error es)))
      | exception Mdsl.Parse_error (msg, loc) ->
        Error
          (Printf.sprintf "metalc oracle: %s: %s: %s" path
             (Loc.to_string loc) msg)
    in
    let rec load acc = function
      | [] -> Ok { specs = List.rev acc }
      | n :: rest -> (
        match load1 n with
        | Ok s -> load (s :: acc) rest
        | Error e -> Error e)
    in
    load [] spec_names

(* the production path at one and two domains vs the interpreted
   machines run alone, on one program *)
let compare_on (t : t) ~(seed : int) ~(label : string)
    ~(spec : Flash_api.spec) (tus : Ast.tunit list) :
    Fuzz_oracle.failure list =
  let checkers = List.map (fun (_, c, _) -> c) t.specs in
  let reference =
    Fuzz_oracle.render
      (List.map
         (fun (name, _, sm) -> (name, Engine.check sm (`Program tus)))
         t.specs)
  in
  List.filter_map
    (fun jobs ->
      let results, _ = Mcd.check_jobs ~checkers ~jobs [ { Mcd.spec; tus } ] in
      let got = Fuzz_oracle.render (List.concat results) in
      if got = reference then None
      else
        Some
          {
            Fuzz_oracle.f_seed = seed;
            f_oracle = Printf.sprintf "metalc-jobs%d" jobs;
            f_detail = label ^ ": " ^ Fuzz_oracle.first_diff got reference;
          })
    [ 1; 2 ]

(** the per-generated-program hook for {!Fuzz_driver.run}'s
    [extra_oracle] *)
let oracle (t : t) (p : Fuzz_gen.program) : Fuzz_oracle.failure list =
  compare_on t ~seed:p.Fuzz_gen.seed ~label:"fuzz program"
    ~spec:p.Fuzz_gen.spec p.Fuzz_gen.tus

(** the fixed-input pass: every corpus protocol plus both golden
    variants, reported under seed 0 *)
let sweep (t : t) : Fuzz_oracle.failure list =
  let corpus = Corpus.generate () in
  let corpus_fs =
    List.concat_map
      (fun (p : Corpus.protocol) ->
        compare_on t ~seed:0 ~label:("corpus " ^ p.Corpus.name)
          ~spec:p.Corpus.spec p.Corpus.tus)
      corpus.Corpus.protocols
  in
  let golden_fs =
    List.concat_map
      (fun (v, lbl) ->
        compare_on t ~seed:0 ~label:lbl ~spec:Golden.spec (Golden.program v))
      [ (Golden.Clean, "golden-clean"); (Golden.Buggy, "golden-buggy") ]
  in
  corpus_fs @ golden_fs
