(** The network-send deadlock checker — Section 7.

    Each handler is assigned a per-lane send allowance when the protocol is
    designed; the hardware only dispatches the handler once that much
    output-queue space is available.  Sending beyond the allowance without
    an explicit [WAIT_FOR_OUTPUT_SPACE] can deadlock the machine.

    This is the paper's inter-procedural checker: a local pass annotates
    every send with its lane, a global pass links per-function flow graphs
    through the call graph and computes, per handler, the worst-case
    per-lane send burst on any path.  Loops and recursion use the paper's
    fixed-point rule: a cycle whose body cannot grow the burst (no sends,
    or every send covered by its own space check) is ignored; anything
    else is flagged.  Diagnostics carry an inter-procedural back trace. *)

let name = "lanes"
let metal_loc = 220

(* Per-lane effect: [sum] is the net (sends − space checks) and [peak] the
   maximum prefix value, i.e. the largest burst of sends not covered by
   explicit space checks.  A handler is safe iff [peak <= allowance] on
   every lane. *)
module Lane_domain = struct
  type lane = { sum : int; peak : int }

  type t = lane array

  let lane_zero = { sum = 0; peak = min_int }

  let zero = Array.make Flash_api.n_lanes lane_zero

  (* [min_int] is a peak of no prefix at all: adding [a]'s sum to it
     would wrap around when the sum is negative *)
  let seq a b =
    Array.init Flash_api.n_lanes (fun i ->
        {
          sum = a.(i).sum + b.(i).sum;
          peak =
            (if b.(i).peak = min_int then a.(i).peak
             else max a.(i).peak (a.(i).sum + b.(i).peak));
        })

  let join a b =
    Array.init Flash_api.n_lanes (fun i ->
        { sum = max a.(i).sum b.(i).sum; peak = max a.(i).peak b.(i).peak })

  let equal a b =
    Array.for_all2 (fun x y -> x.sum = y.sum && x.peak = y.peak) a b

  (* a loop is a fixed point when iterating cannot grow the burst *)
  let loop_safe t = Array.for_all (fun l -> l.sum <= 0) t

  let send lane =
    Array.init Flash_api.n_lanes (fun i ->
        if i = lane then { sum = 1; peak = 1 } else lane_zero)

  let space_check lane =
    Array.init Flash_api.n_lanes (fun i ->
        if i = lane then { sum = -1; peak = -1 } else lane_zero)

  let pp ppf t =
    Array.iteri
      (fun i l ->
        if l.sum <> 0 || l.peak > min_int then
          Format.fprintf ppf "lane%d(sum=%d,peak=%d) " i l.sum l.peak)
      t
end

module Client = struct
  module D = Lane_domain

  (* effect of one CFG node: sends and space checks, in order *)
  let event (_func : Ast.func) (node : Cfg.node) : D.t =
    let acc = ref D.zero in
    let on_expr e =
      Ast.iter_expr
        (fun e ->
          match Cutil.send_macro e with
          | Some macro ->
            let lane =
              Flash_api.lane_of_send ~macro ~opcode:(Cutil.ni_opcode e)
            in
            Option.iter (fun l -> acc := D.seq !acc (D.send l)) lane
          | None -> (
            match e.Ast.edesc with
            | Ast.Call ({ edesc = Ast.Ident w; _ }, [ arg ])
              when String.equal w Flash_api.wait_for_output_space -> (
              match arg.Ast.edesc with
              | Ast.Int_lit (l, _) ->
                acc := D.seq !acc (D.space_check (Int64.to_int l))
              | _ -> ())
            | _ -> ()))
        e
    in
    (match node.Cfg.kind with
    | Cfg.Stmt { Ast.sdesc = Ast.Sexpr e; _ }
    | Cfg.Branch e | Cfg.Switch e
    | Cfg.Return (Some e) ->
      on_expr e
    | Cfg.Stmt { Ast.sdesc = Ast.Sdecl { Ast.v_init = Some e; _ }; _ } ->
      on_expr e
    | _ -> ());
    !acc
end

module Analysis = Interproc.Make (Client)

let lane_name = function
  | 0 -> "PI"
  | 1 -> "IO"
  | 2 -> "NET-request"
  | 3 -> "NET-reply"
  | n -> string_of_int n

type local = Analysis.local

let local = Analysis.local

let link ?(fixed_point = true) ~(spec : Flash_api.spec)
    (lookup : string -> local option) : Diag.t list =
  let ctx = Analysis.create lookup in
  let diags = ref [] in
  List.iter
    (fun (h : Flash_api.handler_spec) ->
      match Analysis.find ctx h.Flash_api.h_name with
      | None -> ()
      | Some local -> (
        match Analysis.summarize ctx h.Flash_api.h_name with
        | None -> ()
        | Some summary ->
          Array.iteri
            (fun lane (l : Lane_domain.lane) ->
              let allowance = h.Flash_api.h_lane_allowance.(lane) in
              if l.Lane_domain.peak > allowance then begin
                (* the textual back trace the paper calls crucial *)
                let trace =
                  List.filter_map
                    (fun (site : Analysis.site) ->
                      if
                        site.Analysis.site_effect.(lane).Lane_domain.sum <> 0
                      then Some site.Analysis.site_loc
                      else None)
                    summary.Analysis.witness
                in
                (* witness: the same sites as the back trace, annotated
                   with the running send balance they drive — the
                   inter-procedural analogue of the engine's state
                   transitions *)
                let witness =
                  let sent = ref 0 in
                  List.filter_map
                    (fun (site : Analysis.site) ->
                      let sum =
                        site.Analysis.site_effect.(lane).Lane_domain.sum
                      in
                      if sum <> 0 then begin
                        let from_state = Printf.sprintf "sent=%d" !sent in
                        sent := !sent + sum;
                        Some
                          (Diag.step ~loc:site.Analysis.site_loc
                             ~event:
                               (Printf.sprintf "%s: %+d on the %s lane"
                                  site.Analysis.site_func sum
                                  (lane_name lane))
                             ~from_state
                             ~to_state:(Printf.sprintf "sent=%d" !sent))
                      end
                      else None)
                    summary.Analysis.witness
                in
                diags :=
                  Diag.make ~checker:name ~loc:(Analysis.loc local)
                    ~func:h.Flash_api.h_name ~trace ~witness
                    (Printf.sprintf
                       "handler can send %d message(s) on the %s lane but \
                        its allowance is %d"
                       l.Lane_domain.peak (lane_name lane) allowance)
                  :: !diags
              end)
            summary.Analysis.effect_))
    spec.Flash_api.p_handlers;
  (* recursion that is not a send fixed point *)
  List.iter
    (fun (fname, loc) ->
      match Analysis.summary_of ctx fname with
      | Some s when not (Lane_domain.loop_safe s.Analysis.effect_) ->
        diags :=
          Diag.make ~severity:Diag.Warning ~checker:name ~loc ~func:fname
            "recursive cycle performs sends: possible unbounded bursts"
          :: !diags
      | _ -> ())
    (Analysis.cycles ctx);
  (* intra-procedural loops whose body sends without space checks; with
     the fixed-point rule disabled (ablation), every loop that touches a
     lane at all is flagged, reproducing the naive checker's FP storm *)
  List.iter
    (fun (fname, loc) ->
      diags :=
        Diag.make ~severity:Diag.Warning ~checker:name ~loc ~func:fname
          "loop body performs sends not covered by space checks"
        :: !diags)
    (Analysis.effectful_loops ctx);
  if not fixed_point then
    List.iter
      (fun (p : Flash_api.handler_spec) ->
        match Analysis.find ctx p.Flash_api.h_name with
        | Some local when Analysis.has_loop_and_event local ->
          diags :=
            Diag.make ~severity:Diag.Warning ~checker:name
              ~loc:(Analysis.loc local) ~func:p.Flash_api.h_name
              "(no fixed point rule) handler contains loops and sends"
            :: !diags
        | _ -> ())
      spec.Flash_api.p_handlers;
  Diag.normalize !diags

let locals_of_units (tus : Ast.tunit list) : string -> local option =
  let callgraph = Callgraph.build tus in
  fun name -> Option.map local (Callgraph.find_func callgraph name)

let run ?fixed_point ~spec tus = link ?fixed_point ~spec (locals_of_units tus)

(** Sends examined by the lane analysis. *)
let applied (tus : Ast.tunit list) : int =
  Cutil.count_calls tus Flash_api.send_macros
