(** A meta-level optimisation pass — MC's third pillar.

    Removes [WAIT_FOR_DB_FULL] calls that are provably redundant: a wait
    whose every visit (on every path) happens with the buffer already
    synchronised is pure critical-path overhead.  Waits reachable in the
    unsynchronised state are kept.  The test suite asserts the race
    checker's verdict is unchanged by optimisation. *)

type report = { functions_changed : int; waits_removed : int }

val optimize : Ast.tunit list -> Ast.tunit list * report
