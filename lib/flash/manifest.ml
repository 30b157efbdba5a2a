(** Ground truth for the synthetic corpus.

    Every fault (and every intentional checker-confusing construct) seeded
    into the generated protocols is recorded here, so the experiment
    harness can classify each reported diagnostic as a true error, a minor
    violation, or a false positive, and verify that no seeded fault is
    missed.  This plays the role of the paper authors' manual triage of
    checker output. *)

type kind =
  | Bug  (** a real error the checker should report *)
  | Minor  (** technically a violation: unreachable/harmless/abstraction *)
  | False_positive
      (** valid code the checker is expected to flag (unpruned paths,
          debug idioms, subroutine conventions) *)

type entry = {
  checker : string;  (** checker expected to fire *)
  protocol : string;
  func : string;  (** function containing the seeded site *)
  kind : kind;
  count : int;  (** how many distinct reports this site produces *)
  note : string;
}

let entry ?(count = 1) ~checker ~protocol ~func ~kind note =
  { checker; protocol; func; kind; count; note }

(** Classify a diagnostic against the manifest: find an entry for the same
    checker/protocol/function. *)
let classify (entries : entry list) ~checker ~protocol ~func : entry option =
  List.find_opt
    (fun e ->
      String.equal e.checker checker
      && String.equal e.protocol protocol
      && String.equal e.func func)
    entries

(** Expected totals for one checker in one protocol. *)
let expected_counts (entries : entry list) ~checker ~protocol : int * int * int
    =
  List.fold_left
    (fun (bugs, minors, fps) e ->
      if String.equal e.checker checker && String.equal e.protocol protocol
      then
        match e.kind with
        | Bug -> (bugs + e.count, minors, fps)
        | Minor -> (bugs, minors + e.count, fps)
        | False_positive -> (bugs, minors, fps + e.count)
      else (bugs, minors, fps))
    (0, 0, 0) entries
