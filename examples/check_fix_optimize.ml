(** The full MC trifecta — check, transform, optimise — on one messy
    handler.

    The paper positions meta-level compilation as a framework for all
    three; the FLASH study demonstrates checking.  This example runs the
    other two legs of the pipeline on a handler that has a missing
    simulator hook, an unsynchronised read, a leaking early return, and a
    redundant second wait.

    Run with: [dune exec examples/check_fix_optimize.exe] *)

let messy =
  {|
void NIRemotePut(void)
{
  HANDLER_DEFS();
  long addr;
  long v;
  addr = HANDLER_GLOBALS(header.nh.address);
  v = MISCBUS_READ_DB(addr, 0);          /* race: no wait yet          */
  if (v > 4096) {
    return;                              /* leak: buffer never freed   */
  }
  WAIT_FOR_DB_FULL(addr);
  WAIT_FOR_DB_FULL(addr);                /* redundant second wait      */
  v = v + MISCBUS_READ_DB(addr, 4);
  HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
  PI_SEND(F_DATA, 0, 0, W_NOWAIT, 1, 0);
  FREE_DB();
}
|}

let spec =
  {
    Flash_api.p_name = "example";
    p_handlers =
      [
        {
          Flash_api.h_name = "NIRemotePut";
          h_kind = Flash_api.Hw_handler;
          h_lane_allowance = [| 1; 1; 1; 1 |];
          h_no_stack = false;
        };
      ];
    p_free_funcs = [];
    p_use_funcs = [];
    p_cond_free_funcs = [];
  }

let report label tus =
  Printf.printf "--- %s ---\n" label;
  let any = ref false in
  List.iter
    (fun (c : Registry.checker) ->
      List.iter
        (fun d ->
          any := true;
          Format.printf "  %a@." Diag.pp d)
        (Registry.run c ~spec tus))
    Registry.all;
  if not !any then print_endline "  (clean)";
  print_newline ()

(* parse as one program, printing any lex/parse diagnostic *)
let parse units =
  let tus, syntax = Frontend.parse_strings units in
  List.iter (fun d -> Format.printf "  %a@." Diag.pp d) syntax;
  tus

let () =
  let tus = parse [ ("messy.c", Prelude.text ^ messy) ] in
  report "CHECK: the original handler" tus;

  print_endline "FIX: repairing hooks, races and leaks...";
  let fixed = Fixer.fix_all ~spec tus in
  (* round-trip through source so the repair is a real rewrite *)
  let fixed =
    parse
      (List.map (fun tu -> (tu.Ast.tu_file, Pp.tunit_to_string tu)) fixed)
  in
  print_newline ();
  report "CHECK: after the fixes" fixed;

  print_endline "OPTIMIZE: removing redundant synchronisation...";
  let optimized, r = Optimizer.optimize fixed in
  Printf.printf "  removed %d wait(s) in %d function(s)\n\n"
    r.Optimizer.waits_removed r.Optimizer.functions_changed;
  report "CHECK: after optimisation (still clean)" optimized;

  print_endline "the final handler:";
  List.iter
    (fun tu ->
      match Ast.find_function tu "NIRemotePut" with
      | Some f -> Format.printf "%a@." Pp.pp_func f
      | None -> ())
    optimized
