(** O7 [metalc]: the compiled metal back end must equal the interpreter.

    The three in-tree specs are loaded twice — through {!Mrun.compile}
    (parser → typed IR → transition tables → prebuilt engine dispatch)
    and through {!Mrun.interp} ({!Mdsl.load} unchanged) — and every
    program the fuzzer produces is checked under both.  The rendered
    diagnostics (order included) must be byte-identical; since
    {!Fuzz_oracle.keyset} is a projection of the same diagnostics, key
    sets are byte-identical a fortiori.  A third differential holds the
    fused multi-machine driver ({!Mrun.check_program_fused}) to the
    standalone compiled runs, so the [mcheck --metal A --metal B] path
    is covered too.

    [sweep] is the one-shot fixed-input pass — the five corpus
    protocols and both golden-protocol variants — run once per fuzz
    session before the seeded loop; [oracle] is the per-program hook
    shaped for {!Fuzz_driver.run}'s [extra_oracle]. *)

type t = {
  specs : (string * Mrun.t * Mrun.t) list;
      (** name, compiled back end, interpreted back end *)
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
      match (Mrun.compile ~file:path src, Mrun.interp ~file:path src) with
      | Ok c, Ok i -> Ok (name, c, i)
      | Error es, _ | _, Error es ->
        Error
          (Printf.sprintf "metalc oracle: %s: %s" path
             (String.concat "; " (List.map Mir.render_error es)))
    in
    let rec load acc = function
      | [] -> Ok { specs = List.rev acc }
      | n :: rest -> (
        match load1 n with
        | Ok s -> load (s :: acc) rest
        | Error e -> Error e)
    in
    load [] spec_names

(* compiled vs interpreted on one program, all three machines *)
let compare_on (t : t) ~(seed : int) ~(label : string)
    (tus : Ast.tunit list) : Fuzz_oracle.failure list =
  let per_machine =
    List.filter_map
      (fun (name, compiled, interp) ->
        let rc = Fuzz_oracle.render [ (name, Mrun.check compiled (`Program tus)) ]
        and ri = Fuzz_oracle.render [ (name, Mrun.check interp (`Program tus)) ] in
        if rc <> ri then
          Some
            {
              Fuzz_oracle.f_seed = seed;
              f_oracle = "metalc-" ^ name;
              f_detail = label ^ ": " ^ Fuzz_oracle.first_diff rc ri;
            }
        else None)
      t.specs
  in
  (* fused driver (one shared Prep.t per function across machines) must
     equal the standalone compiled runs *)
  let fused =
    Mrun.check_program_fused (List.map (fun (_, c, _) -> c) t.specs) tus
  in
  let fused_diffs =
    List.map2
      (fun (name, compiled, _) ds ->
        let rf = Fuzz_oracle.render [ (name, ds) ]
        and rs = Fuzz_oracle.render [ (name, Mrun.check compiled (`Program tus)) ] in
        if rf <> rs then
          Some
            {
              Fuzz_oracle.f_seed = seed;
              f_oracle = "metalc-fused-" ^ name;
              f_detail = label ^ ": " ^ Fuzz_oracle.first_diff rf rs;
            }
        else None)
      t.specs fused
    |> List.filter_map Fun.id
  in
  per_machine @ fused_diffs

(** the per-generated-program hook for {!Fuzz_driver.run}'s
    [extra_oracle] *)
let oracle (t : t) (p : Fuzz_gen.program) : Fuzz_oracle.failure list =
  compare_on t ~seed:p.Fuzz_gen.seed ~label:"fuzz program" p.Fuzz_gen.tus

(** the fixed-input pass: every corpus protocol plus both golden
    variants, reported under seed 0 *)
let sweep (t : t) : Fuzz_oracle.failure list =
  let corpus = Corpus.generate () in
  let corpus_fs =
    List.concat_map
      (fun (p : Corpus.protocol) ->
        compare_on t ~seed:0 ~label:("corpus " ^ p.Corpus.name) p.Corpus.tus)
      corpus.Corpus.protocols
  in
  let golden_fs =
    List.concat_map
      (fun (v, lbl) -> compare_on t ~seed:0 ~label:lbl (Golden.program v))
      [ (Golden.Clean, "golden-clean"); (Golden.Buggy, "golden-buggy") ]
  in
  corpus_fs @ golden_fs
