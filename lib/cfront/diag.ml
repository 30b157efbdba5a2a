(** Diagnostics emitted by checkers. *)

type severity = Error | Warning | Note

type step = {
  w_loc : Loc.t;  (** where the transition fired *)
  w_event : string;  (** the matched event (source expression, compact) *)
  w_from : string;  (** checker state before the event *)
  w_to : string;  (** checker state after ([stop] for abandoned paths) *)
}

type t = {
  checker : string;  (** checker name, e.g. ["wait_for_db"] *)
  severity : severity;
  loc : Loc.t;  (** primary source location *)
  message : string;
  func : string;  (** enclosing function *)
  trace : Loc.t list;
      (** the execution path that reached the error, entry first — the
          paper's "back trace" *)
  witness : step list;
      (** the diagnostic explanation: the sequence of
          (location, matched pattern, state transition) steps that drove
          the checker's state machine to the report, in firing order.
          The engine attaches the real sequence; a diagnostic built
          outside the engine gets a one-step synthetic witness at its
          report site, so the list is never empty. *)
}

let step ~loc ~event ~from_state ~to_state =
  { w_loc = loc; w_event = event; w_from = from_state; w_to = to_state }

let make ?(severity = Error) ?(trace = []) ?(witness = []) ~checker ~loc
    ~func message =
  let witness =
    match witness with
    | [] ->
      [ step ~loc ~event:"report" ~from_state:"-" ~to_state:"error" ]
    | w -> w
  in
  { checker; severity; loc; message; func; trace; witness }

let with_witness witness t =
  match witness with [] -> t | w -> { t with witness = w }

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let pp ppf t =
  Format.fprintf ppf "%a: %s: [%s] %s (in %s)" Loc.pp t.loc
    (severity_string t.severity)
    t.checker t.message t.func

let pp_with_trace ppf t =
  pp ppf t;
  match t.trace with
  | [] -> ()
  | trace ->
    Format.fprintf ppf "@\n  path:";
    List.iter (fun loc -> Format.fprintf ppf "@\n    %a" Loc.pp loc) trace

(* The --explain rendering: the witness path, one transition per line,
   in firing order. *)
let pp_explain ppf t =
  pp ppf t;
  Format.fprintf ppf "@\n  witness:";
  List.iter
    (fun s ->
      Format.fprintf ppf "@\n    %a: %s  [%s -> %s]" Loc.pp s.w_loc
        s.w_event s.w_from s.w_to)
    t.witness

let to_string t = Format.asprintf "%a" pp t

(* Location-free identity.  Differential oracles compare diagnostics
   across pipelines whose inputs are textually different renderings of
   the same program (e.g. before and after a printer round trip), where
   every location shifts but nothing else may. *)
let key t =
  Printf.sprintf "%s|%s|%s|%s" t.checker
    (severity_string t.severity)
    t.func t.message

(* Presentation order: source order, then severity, then message, so runs
   are reproducible. *)
let compare a b =
  let c = Loc.compare a.loc b.loc in
  if c <> 0 then c
  else
    let c = compare a.severity b.severity in
    if c <> 0 then c else String.compare a.message b.message

(** Sort and drop exact duplicates (the same invariant violation is often
    reachable along many paths; the paper reports each site once). *)
let normalize (ds : t list) : t list =
  let sorted = List.sort compare ds in
  let rec dedup = function
    | a :: b :: rest ->
      if Loc.equal a.loc b.loc && String.equal a.message b.message
         && String.equal a.checker b.checker
      then dedup (a :: rest)
      else a :: dedup (b :: rest)
    | short -> short
  in
  dedup sorted
