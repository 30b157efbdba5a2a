(** Fault-injection campaigns against the hardened checking pipeline.

    A campaign plants [count] seeded faults one at a time — source
    truncation / garbage splices, cache corruption at arbitrary offsets,
    checker exceptions via the engine's test hook, starved unit budgets,
    killed pool workers — runs the pipeline under each, and asserts the
    containment invariants: no uncaught exception, no hang, deterministic
    diagnostics on the unaffected remainder (functions whose content hash
    the fault did not change), coverage loss reported (["parse"] /
    ["lex"] / ["internal"] entries), and cold-never-crash cache loads.

    Campaigns are deterministic in their seed; a failure names a
    reproducible [(seed, index)] pair. *)

type fault =
  | Truncate_source of { file_idx : int; at : int }
      (** cut the file at byte [at] *)
  | Splice_garbage of { file_idx : int; at : int }
      (** insert an unlexable token soup at byte [at] *)
  | Flip_cache_byte of { at : int }  (** XOR one container byte *)
  | Truncate_cache of { at : int }  (** cut the container at byte [at] *)
  | Clean_cache_control
      (** no mutation — the load must come back warm (detects an
          over-eager validator) *)
  | Raise_in_checker of { checker : string; func : string }
      (** {!Engine.set_fault_hook}: raise inside that (checker, function)
          unit *)
  | Kill_worker of { task : int }
      (** {!Mcd_pool.set_test_kill}: worker 1 dies before claiming
          [task]; the coordinator must re-claim its orphans *)
  | Exhaust_fuel of { fuel : int }  (** a unit budget of [fuel] nodes *)
  | Exhaust_deadline  (** a unit deadline that has already passed *)

type klass = Parser | Cache | Checker | Budget

val klass_of_name : string -> klass option
val all_classes : klass list
val fault_to_string : fault -> string

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

val campaign : ?seed:int -> ?count:int -> ?classes:klass list -> unit -> summary
(** run [count] (default 500) injections with the default 4:4:1:1
    parser / cache / checker / budget mix, restricted to [classes]
    (default: all).  Leaves no global state behind: the engine fault hook
    and the pool kill hook are cleared after each injection. *)

val pp_summary : Format.formatter -> summary -> unit
val summary_to_json : summary -> string
