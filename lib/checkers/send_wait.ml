(** The send/wait pairing checker — Section 9.

    Intervention handlers send to the processor or I/O interface with the
    "wait" bit set and must then wait for the reply with the matching
    interface macro; missing or mismatched waits deadlock the machine.
    The checker enforces that (1) every send with [W_WAIT] is followed on
    the path by the proper wait, and (2) no second synchronous send is
    issued before the first has been waited for. *)

let name = "send_wait"
let metal_loc = 40

type iface = PI | IO

type state = Idle | Waiting of iface

let decls =
  [ ("flag", Pattern.Any); ("keep", Pattern.Any); ("swap", Pattern.Any);
    ("dec", Pattern.Any); ("null", Pattern.Any) ]

let pi_send_wait =
  Pattern.expr ~decls "PI_SEND(flag, keep, swap, W_WAIT, dec, null)"

let io_send_wait =
  Pattern.expr ~decls "IO_SEND(flag, keep, swap, W_WAIT, dec, null)"

let pi_wait = Pattern.expr (Flash_api.wait_for_pi_reply ^ "()")
let io_wait = Pattern.expr (Flash_api.wait_for_io_reply ^ "()")

let iface_name = function PI -> "PI" | IO -> "IO"

let sm : state Sm.t =
  Sm.make ~name
    ~start:(fun _ -> Some Idle)
    ~rules:(function
      | Idle ->
        [
          Sm.goto_rule pi_send_wait (Waiting PI);
          Sm.goto_rule io_send_wait (Waiting IO);
          (* a stray wait with nothing outstanding is harmless for
             deadlock but flagged at warning level *)
          Sm.rule (Pattern.alt [ pi_wait; io_wait ]) (fun _ -> Sm.Stay);
        ]
      | Waiting iface ->
        [
          Sm.rule pi_wait (fun ctx ->
              if iface = PI then Sm.Goto Idle
              else begin
                Sm.err ~checker:name ctx
                  "waiting on the PI interface but the outstanding send \
                   was on %s"
                  (iface_name iface);
                Sm.Goto Idle
              end);
          Sm.rule io_wait (fun ctx ->
              if iface = IO then Sm.Goto Idle
              else begin
                Sm.err ~checker:name ctx
                  "waiting on the IO interface but the outstanding send \
                   was on %s"
                  (iface_name iface);
                Sm.Goto Idle
              end);
          Sm.rule
            (Pattern.alt [ pi_send_wait; io_send_wait ])
            (fun ctx ->
              Sm.err ~checker:name ctx
                "second synchronous send before waiting for the first";
              Sm.Stay);
        ])
    ~state_to_string:(function
      | Idle -> "idle"
      | Waiting i -> "waiting_" ^ iface_name i)
    ()

let exit_hook : state Engine.exit_hook =
  fun ctx state ->
  match state with
  | Waiting iface ->
    Sm.err ~checker:name ctx
      "synchronous %s send is never waited for on this path \
       (or waits without the interface macro)"
      (iface_name iface)
  | Idle -> ()

let machine ~spec =
  let _ = spec in
  Engine.machine ~at_exit:exit_hook sm

(** Synchronous sends plus interface waits — the Applied column of
    Table 6. *)
let applied (tus : Ast.tunit list) : int =
  let waits =
    Cutil.count_calls tus
      [ Flash_api.wait_for_pi_reply; Flash_api.wait_for_io_reply ]
  in
  let sync_sends = ref 0 in
  List.iter
    (fun tu ->
      List.iter
        (fun f ->
          List.iter
            (fun s ->
              Ast.iter_stmt_exprs
                (fun e ->
                  Ast.iter_expr
                    (fun e ->
                      match Cutil.send_wait_flag e with
                      | Some flag when String.equal flag Flash_api.w_wait ->
                        incr sync_sends
                      | _ -> ())
                    e)
                s)
            f.Ast.f_body)
        (Ast.functions tu))
    tus;
  waits + !sync_sends
