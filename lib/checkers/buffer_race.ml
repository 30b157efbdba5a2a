(** The buffer fill-race checker — the paper's Figure 2, Section 4.

    When a message arrives, the handler starts on the header while the
    hardware is still filling the data buffer.  Any [MISCBUS_READ_DB] must
    therefore be preceded on the same path by a synchronising
    [WAIT_FOR_DB_FULL].  As in the paper, the deployed version also
    recognises the older-style read macros.

    Transliterated metal (Figure 2):
    {v
      sm wait_for_db {
        decl { scalar } addr, buf;
        start:
          { WAIT_FOR_DB_FULL(addr); } ==> stop
        | { MISCBUS_READ_DB(addr, buf); } ==>
            { err("Buffer not synchronized"); } ;
      }
    v} *)

let name = "wait_for_db"
let metal_loc = 12 (* the paper's Table 7 size for this checker *)

type state = Start

let addr = ("addr", Pattern.Scalar)
let buf = ("buf", Pattern.Scalar)

let wait_pattern =
  Pattern.expr ~decls:[ addr ] (Flash_api.wait_for_db_full ^ "(addr)")

let read_pattern =
  Pattern.alt
    [
      Pattern.expr ~decls:[ addr; buf ]
        (Flash_api.miscbus_read_db ^ "(addr, buf)");
      (* the equivalent older-style macro, as in the deployed checker *)
      Pattern.expr ~decls:[ addr; buf ]
        (Flash_api.miscbus_read_db_old ^ "(addr, buf)");
    ]

let rules =
  [
    Sm.stop_rule wait_pattern;
    Sm.err_rule ~checker:name read_pattern "Buffer not synchronized";
  ]

let sm : state Sm.t =
  Sm.make ~name ~start:(fun _ -> Some Start) ~rules:(fun Start -> rules) ()

let machine ~spec =
  let _ = spec in
  Engine.machine sm

(** Number of data-buffer reads — the Applied column of Table 2. *)
let applied (tus : Ast.tunit list) : int =
  Cutil.count_calls tus
    [ Flash_api.miscbus_read_db; Flash_api.miscbus_read_db_old ]
