(** Quickstart: write the paper's Figure 2 checker and run it.

    The checker enforces "WAIT_FOR_DB_FULL must come before
    MISCBUS_READ_DB" — a handler that reads its data buffer before the
    hardware finished filling it has a race that corrupts data
    sporadically.

    Run with: [dune exec examples/quickstart.exe] *)

(* The metal source from the paper's Figure 2 reads:

     sm wait_for_db {
       decl { scalar } addr, buf;
       start:
         { WAIT_FOR_DB_FULL(addr); } ==> stop
       | { MISCBUS_READ_DB(addr, buf); } ==>
           { err("Buffer not synchronized"); } ;
     }

   and transliterates one-for-one: *)

type state = Start

let checker : state Sm.t =
  let addr = ("addr", Pattern.Scalar) in
  let buf = ("buf", Pattern.Scalar) in
  Sm.make ~name:"wait_for_db"
    ~start:(fun _ -> Some Start)
    ~rules:(fun Start ->
      [
        (* once the handler has synchronised, this path is fine *)
        Sm.stop_rule (Pattern.expr ~decls:[ addr ] "WAIT_FOR_DB_FULL(addr)");
        (* a read before that is the race *)
        Sm.err_rule ~checker:"wait_for_db"
          (Pattern.expr ~decls:[ addr; buf ] "MISCBUS_READ_DB(addr, buf)")
          "Buffer not synchronized";
      ])
    ()

(* A handler with the bug on one of its three paths: the else-branch
   reads the buffer without waiting. *)
let handler_source =
  {|
void WAIT_FOR_DB_FULL(long addr);
long MISCBUS_READ_DB(long addr, int off);

void NIRemotePut(void)
{
  long addr;
  long v;
  addr = 128;
  if (addr > 64) {
    WAIT_FOR_DB_FULL(addr);
    v = MISCBUS_READ_DB(addr, 0);
  } else {
    v = MISCBUS_READ_DB(addr, 0);   /* <- race */
  }
  v = v + MISCBUS_READ_DB(addr, 4); /* <- race on the else path only */
}
|}

let () =
  print_endline "Checking NIRemotePut with the Figure 2 checker...";
  (* the front end never raises: a malformed region comes back as a
     lex/parse diagnostic, and every intact function is still checked *)
  let tu, syntax = Frontend.parse ~file:"quickstart.c" handler_source in
  List.iter (fun d -> Format.printf "  %a@." Diag.pp d) syntax;
  let diags = Engine.check checker (`Unit tu) in
  List.iter (fun d -> Format.printf "  %a@." Diag.pp d) diags;
  Printf.printf "found %d violation(s) (expected 2)\n" (List.length diags)
