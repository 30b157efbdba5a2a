(* Per-layer self time from an Mcobs snapshot.

   A span's layer is its name up to the first '.'; its self time is its
   duration minus that of its direct children on the same domain track.
   Only spans inside a root span count, and a root's own self time is
   the part of the wall no layer claimed, so the layers' self times plus
   that remainder add up to the roots' total duration. *)

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

type t = {
  wall_us : float;  (** total duration of the root spans *)
  unattributed_us : float;
  layers : (string * float) list;  (** layer, self time in us; by name *)
}

let attribute ~tid ~root (spans : Mcobs.span list) : t =
  let spans =
    List.filter (fun (s : Mcobs.span) -> s.Mcobs.sp_tid = tid) spans
    |> List.sort (fun (a : Mcobs.span) (b : Mcobs.span) ->
           match Float.compare a.Mcobs.sp_begin_us b.Mcobs.sp_begin_us with
           | 0 -> Float.compare b.Mcobs.sp_dur_us a.Mcobs.sp_dur_us
           | c -> c)
  in
  let self = Hashtbl.create 16 in
  let wall = ref 0. and unattributed = ref 0. in
  let close ((s : Mcobs.span), _, kids) =
    let own = s.Mcobs.sp_dur_us -. !kids in
    if String.equal s.Mcobs.sp_name root then begin
      wall := !wall +. s.Mcobs.sp_dur_us;
      unattributed := !unattributed +. own
    end
    else
      let l = layer_of s.Mcobs.sp_name in
      Hashtbl.replace self l
        (own +. Option.value ~default:0. (Hashtbl.find_opt self l))
  in
  (* the open spans, innermost first: span, end time, children's total *)
  let stack = ref [] in
  let rec pop_until t =
    match !stack with
    | ((_, e, _) as top) :: rest when e <= t ->
      stack := rest;
      close top;
      pop_until t
    | _ -> ()
  in
  List.iter
    (fun (s : Mcobs.span) ->
      pop_until s.Mcobs.sp_begin_us;
      let entry = (s, s.Mcobs.sp_begin_us +. s.Mcobs.sp_dur_us, ref 0.) in
      match !stack with
      | [] -> if String.equal s.Mcobs.sp_name root then stack := [ entry ]
      | (_, _, kids) :: _ ->
        kids := !kids +. s.Mcobs.sp_dur_us;
        stack := entry :: !stack)
    spans;
  pop_until Float.infinity;
  {
    wall_us = !wall;
    unattributed_us = !unattributed;
    layers =
      List.sort compare (Hashtbl.fold (fun l v acc -> (l, v) :: acc) self []);
  }
