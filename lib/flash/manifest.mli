(** Ground truth for the synthetic corpus.

    Every fault (and every intentional checker-confusing construct) seeded
    into the generated protocols is recorded, so the experiment harness
    can classify each diagnostic as a true error, a minor violation, or a
    false positive — the role the paper authors' manual triage played. *)

type kind =
  | Bug  (** a real error the checker should report *)
  | Minor  (** technically a violation: unreachable/harmless/abstraction *)
  | False_positive
      (** valid code the checker is expected to flag (unpruned paths,
          debug idioms, subroutine conventions) *)

type entry = {
  checker : string;
  protocol : string;
  func : string;  (** function containing the seeded site *)
  kind : kind;
  count : int;  (** distinct reports this site produces *)
  note : string;
}

val entry :
  ?count:int ->
  checker:string ->
  protocol:string ->
  func:string ->
  kind:kind ->
  string ->
  entry

val classify :
  entry list -> checker:string -> protocol:string -> func:string ->
  entry option

val expected_counts :
  entry list -> checker:string -> protocol:string -> int * int * int
(** (bugs, minors, false positives) expected for one checker in one
    protocol *)
