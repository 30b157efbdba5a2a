(* Open-loop load generation.

   Request [i] is due at a fixed time whatever happened to the earlier
   ones: independent editors do not wait for each other.  [conns]
   senders each take the next request in due order as soon as they are
   free.  Latency runs from the due time, so the time a request spends
   waiting for a free connection — behind a stalled one — counts
   against it. *)

type record = {
  due : float;  (** seconds after the start of the run *)
  grab : float;  (** a sender became free for it *)
  sent : float;
  finished : float;
  ok : bool;
}

let latency r = r.finished -. r.due

(* due-to-send time spent with every connection busy *)
let wait r = Float.max 0. (r.grab -. r.due)

(* how late the generator itself sent, with a connection free *)
let late r = r.sent -. Float.max r.due r.grab

(* Poisson arrivals at [rate] per second over [seconds], conditioned on
   their number: [rate * seconds] arrival times drawn uniformly and
   sorted.  Fixing the count keeps the offered load the same on every
   run. *)
let schedule ~rng ~rate ~seconds : float array =
  let n = int_of_float (Float.round (rate *. seconds)) in
  let a = Array.init n (fun _ -> Random.State.float rng seconds) in
  Array.sort Float.compare a;
  a

let run ~conns ~(due : float array) ~(send : conn:int -> int -> bool) :
    record array =
  let n = Array.length due in
  let out =
    Array.make n { due = 0.; grab = 0.; sent = 0.; finished = 0.; ok = false }
  in
  let next = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let now () = Unix.gettimeofday () -. t0 in
  let sender conn () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let grab = now () in
        if due.(i) > grab then Thread.delay (due.(i) -. grab);
        let sent = now () in
        let ok = try send ~conn i with _ -> false in
        out.(i) <- { due = due.(i); grab; sent; finished = now (); ok };
        loop ()
      end
    in
    loop ()
  in
  List.iter Thread.join (List.init conns (fun c -> Thread.create (sender c) ()));
  out
