(** The message-length/data-flag consistency checker — Figure 3, Section 5.

    The length field in the outgoing header and the has-data parameter of
    the send macro are decoupled by the hardware; this checker tracks the
    last length assignment along each path and flags data sends with a
    zero length and no-data sends with a non-zero length.  As in the
    paper's published figure, it does not consult a table for each
    handler's initial length value: it starts in an [all]-style state that
    does not warn until the first explicit assignment. *)

let name = "msg_length"
let metal_loc = 29

type state = Unknown | Zero_len | Nonzero_len

let u = Pattern.Unsigned_int

let decls =
  [ ("keep", u); ("swap", u); ("wait", u); ("dec", u); ("null", u);
    ("type", u) ]

let zero_assign = Cutil.len_assign_pattern Flash_api.len_nodata

let nonzero_assign =
  Pattern.alt
    [
      Cutil.len_assign_pattern Flash_api.len_word;
      Cutil.len_assign_pattern Flash_api.len_cacheline;
    ]

let send_data =
  Pattern.alt
    [
      Pattern.expr ~decls "PI_SEND(F_DATA, keep, swap, wait, dec, null)";
      Pattern.expr ~decls "IO_SEND(F_DATA, keep, swap, wait, dec, null)";
      Pattern.expr ~decls "NI_SEND(type, F_DATA, keep, wait, dec, null)";
    ]

let send_nodata =
  Pattern.alt
    [
      Pattern.expr ~decls "PI_SEND(F_NODATA, keep, swap, wait, dec, null)";
      Pattern.expr ~decls "IO_SEND(F_NODATA, keep, swap, wait, dec, null)";
      Pattern.expr ~decls "NI_SEND(type, F_NODATA, keep, wait, dec, null)";
    ]

let sm : state Sm.t =
  Sm.make ~name
    ~start:(fun _ -> Some Unknown)
    ~all:
      [
        Sm.goto_rule zero_assign Zero_len;
        Sm.goto_rule nonzero_assign Nonzero_len;
      ]
    ~rules:(function
      | Unknown -> []
      | Zero_len ->
        [ Sm.err_rule ~checker:name send_data "data send, zero len" ]
      | Nonzero_len ->
        [ Sm.err_rule ~checker:name send_nodata "nodata send, nonzero len" ])
    ~state_to_string:(function
      | Unknown -> "all"
      | Zero_len -> "zero_len"
      | Nonzero_len -> "nonzero_len")
    ()

let machine ~spec =
  let _ = spec in
  Engine.machine sm

(** Number of sends — the Applied column of Table 3. *)
let applied (tus : Ast.tunit list) : int =
  Cutil.count_calls tus Flash_api.send_macros
