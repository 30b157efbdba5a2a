(* Child processes: run-and-wait with the kernel's peak-RSS figure, and
   /proc readings for the long-lived daemon and its workers. *)

external wait4 : int -> int * int = "pb_wait4"
(* (exit code, or minus the killing signal; peak resident set in KiB) *)

type run = { code : int; wall_ms : float; peak_rss_mb : float }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let run ~stdout_file ~stderr_file argv =
  let open_w f =
    Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let out = open_w stdout_file in
  let err = open_w stderr_file in
  let t0 = Unix.gettimeofday () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () -> Unix.create_process argv.(0) argv Unix.stdin out err)
  in
  let code, rss_kb = wait4 pid in
  {
    code;
    wall_ms = (Unix.gettimeofday () -. t0) *. 1000.;
    peak_rss_mb = float_of_int rss_kb /. 1024.;
  }

(* VmHWM of a live process, in MiB; 0 once it has gone *)
let hwm_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
        | _ -> acc)
      0.
      (String.split_on_char '\n' status)

(* state and parent pid from /proc/PID/stat, "pid (comm) state ppid ...",
   where comm may hold spaces *)
let stat pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> None
  | s -> (
    match String.rindex_opt s ')' with
    | None -> None
    | Some i -> (
      match String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) with
      | state :: ppid :: _ -> Option.map (fun pp -> (state, pp)) (int_of_string_opt ppid)
      | _ -> None))

(* a zombie has ended; only its parent's wait is missing *)
let alive pid =
  match stat pid with Some (state, _) -> state <> "Z" | None -> false

(* live children of [pid] *)
let children pid =
  Array.to_list (Sys.readdir "/proc")
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | Some p when (match stat p with Some (s, pp) -> pp = pid && s <> "Z" | None -> false) ->
           Some p
         | _ -> None)
