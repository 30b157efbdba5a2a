(** The Mcfuzz campaign loop, shared by [bin/mcfuzz] and the test-suite
    smoke run.

    Per seed: generate a clean program, run the five differential
    oracles on it, then (optionally) seed every applicable mutation,
    re-materialise, score detection against the clean baseline, and
    cross-check each mutant's parallel run against a cache warmed by its
    clean sibling — the incremental-invalidation differential. *)

type outcome = {
  score : Fuzz_score.t;
  failures : Fuzz_oracle.failure list;
}

(* [extra_oracle] lets a caller bolt an additional differential onto
   every clean program — the daemon-vs-CLI oracle lives behind it, so
   this library never depends on the serving stack *)
let run ?(log = fun _ -> ()) ?(kinds = Fuzz_mutate.all_kinds)
    ?(extra_oracle = fun (_ : Fuzz_gen.program) -> []) ~base_seed ~count
    ~mutate () : outcome =
  let score = Fuzz_score.create () in
  let failures = ref [] in
  let shared_cache = Mcd_cache.create () in
  for i = 0 to count - 1 do
    let seed = base_seed + i in
    let p = Fuzz_gen.generate ~seed () in
    let baseline, fs =
      Fuzz_oracle.check ~shared_cache ~seed ~spec:p.Fuzz_gen.spec
        ~tus:p.Fuzz_gen.tus ()
    in
    let efs = extra_oracle p in
    failures := efs @ fs @ !failures;
    Fuzz_score.record_program score;
    Fuzz_score.record_oracle_failures score (List.length fs + List.length efs);
    if mutate then begin
      let mrng = Rng.create ~seed:(seed lxor 0x5EED0) in
      List.iter
        (fun kind ->
          match Fuzz_mutate.apply mrng kind p.Fuzz_gen.raw with
          | None -> ()
          | Some (raw', m) ->
            let _src, tus' = Fuzz_gen.materialize raw' in
            let seq = Registry.run_all ~spec:p.Fuzz_gen.spec tus' in
            (* the shared cache holds this mutant's clean sibling: stale
               entries for the mutated function must be invalidated *)
            let par =
              fst
                (Mcd.check_corpus ~cache:shared_cache ~jobs:2
                   ~spec:p.Fuzz_gen.spec tus')
            in
            if Fuzz_oracle.render par <> Fuzz_oracle.render seq then begin
              failures :=
                {
                  Fuzz_oracle.f_seed = seed;
                  f_oracle = "mutant-cache";
                  f_detail = m.Fuzz_mutate.m_desc;
                }
                :: !failures;
              Fuzz_score.record_oracle_failures score 1
            end;
            ignore (Fuzz_score.record_mutant score m ~baseline ~mutated:seq))
        kinds
    end;
    log (i + 1)
  done;
  { score; failures = List.rev !failures }
