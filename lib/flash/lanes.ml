(** Network output lanes with finite queues.

    FLASH avoids message loss by running a handler only when its assigned
    lanes have enough space for the handler's worst-case sends; sending
    beyond the allowance without an explicit space check can deadlock the
    machine (Section 7).  This model enforces finite capacity and records
    overcommits. *)

type fault = Lane_overflow of int  (** lane index *)

type t = {
  capacity : int;  (** slots per lane *)
  queues : Message.t Queue.t array;
  mutable faults : fault list;
  mutable sends : int;
}

let create ?(capacity = 4) () =
  {
    capacity;
    queues = Array.init Flash_api.n_lanes (fun _ -> Queue.create ());
    faults = [];
    sends = 0;
  }

let space t lane = t.capacity - Queue.length t.queues.(lane)

(** Enqueue a message; a full lane records an overflow (the hardware
    would wedge) and drops the message. *)
let send t (msg : Message.t) : bool =
  let lane = msg.Message.lane in
  if Queue.length t.queues.(lane) >= t.capacity then begin
    t.faults <- Lane_overflow lane :: t.faults;
    false
  end
  else begin
    Queue.add msg t.queues.(lane);
    t.sends <- t.sends + 1;
    true
  end

(** Drain at most one message from each lane, reply lanes first (replies
    must make progress for the deadlock-avoidance scheme to be sound). *)
let drain t : Message.t list =
  let order =
    [
      Flash_api.lane_net_reply;
      Flash_api.lane_pi;
      Flash_api.lane_io;
      Flash_api.lane_net_request;
    ]
  in
  List.filter_map
    (fun lane ->
      if Queue.is_empty t.queues.(lane) then None
      else Some (Queue.pop t.queues.(lane)))
    order

let pending t =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues

let faults t = List.rev t.faults
