(** A user-defined invariant, showing the framework is not FLASH-specific.

    The paper's thesis is that *implementors* can write system-specific
    checkers in hours.  Here is a lock discipline for an imaginary driver:

    - "if you acquire a lock you must release it" (template 3 in the
      paper's Section 3.1);
    - "do not sleep while holding a spinlock" (template "if X then not Y").

    Run with: [dune exec examples/custom_checker.exe] *)

type state = Unlocked | Locked

let checker_name = "spinlock"

let lock = ("l", Pattern.Scalar)

let checker : state Sm.t =
  Sm.make ~name:checker_name
    ~start:(fun _ -> Some Unlocked)
    ~rules:(function
      | Unlocked ->
        [
          Sm.goto_rule (Pattern.expr ~decls:[ lock ] "spin_lock(l)") Locked;
          Sm.rule (Pattern.expr ~decls:[ lock ] "spin_unlock(l)")
            (fun ctx ->
              Sm.err ~checker:checker_name ctx
                "unlock without a matching lock";
              Sm.Stay);
        ]
      | Locked ->
        [
          Sm.goto_rule (Pattern.expr ~decls:[ lock ] "spin_unlock(l)")
            Unlocked;
          Sm.rule (Pattern.expr ~decls:[ lock ] "spin_lock(l)") (fun ctx ->
              Sm.err ~checker:checker_name ctx "double acquire";
              Sm.Stay);
          Sm.err_rule ~checker:checker_name
            (Pattern.alt
               [ Pattern.call "msleep" ~arity:1; Pattern.call "kmalloc_wait" ~arity:1 ])
            "sleeping while holding a spinlock";
        ])
    ~state_to_string:(function Unlocked -> "unlocked" | Locked -> "locked")
    ()

(* flag paths that reach the end of the function still holding the lock *)
let at_exit : state Engine.exit_hook =
 fun ctx state ->
  match state with
  | Locked ->
    Sm.err ~checker:checker_name ctx "function returns with the lock held"
  | Unlocked -> ()

let driver_source =
  {|
void spin_lock(long l);
void spin_unlock(long l);
void msleep(int ms);
long device_lock;

int probe(int want)
{
  spin_lock(device_lock);
  if (want > 4) {
    msleep(10);                /* sleeping under the lock */
    spin_unlock(device_lock);
    return 1;
  }
  if (want < 0) {
    return 0 - 1;              /* leaks the lock */
  }
  spin_unlock(device_lock);
  return 0;
}
|}

let () =
  print_endline "Checking driver code with a custom lock checker...";
  let tu, syntax = Frontend.parse ~file:"driver.c" driver_source in
  List.iter (fun d -> Format.printf "  %a@." Diag.pp d) syntax;
  let diags = Engine.check ~at_exit checker (`Unit tu) in
  List.iter (fun d -> Format.printf "  %a@." Diag.pp d) diags;
  Printf.printf "found %d violation(s) (expected 2)\n" (List.length diags)
