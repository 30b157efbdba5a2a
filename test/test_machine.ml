(** Machine-model tests: buffer pool, lanes, directory organisations. *)

let t = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* buffer pool                                                         *)
(* ------------------------------------------------------------------ *)

let buffer_cases =
  [
    t "allocate and free round trip" `Quick (fun () ->
        let pool = Buffers.create ~size:2 () in
        let b = Option.get (Buffers.allocate pool) in
        Alcotest.(check int) "one free left" 1 (Buffers.free_count pool);
        Buffers.free pool b;
        Alcotest.(check int) "all free" 2 (Buffers.free_count pool);
        Alcotest.(check int) "no faults" 0 (List.length (Buffers.faults pool)));
    t "exhaustion reports a fault" `Quick (fun () ->
        let pool = Buffers.create ~size:1 () in
        let _ = Buffers.allocate pool in
        Alcotest.(check bool) "second fails" true
          (Buffers.allocate pool = None);
        Alcotest.(check bool) "fault recorded" true
          (List.mem Buffers.Pool_exhausted (Buffers.faults pool)));
    t "double free reports a fault" `Quick (fun () ->
        let pool = Buffers.create ~size:1 () in
        let b = Option.get (Buffers.allocate pool) in
        Buffers.free pool b;
        Buffers.free pool b;
        Alcotest.(check bool) "fault" true
          (List.exists
             (function Buffers.Double_free _ -> true | _ -> false)
             (Buffers.faults pool)));
    t "use after free reports a fault" `Quick (fun () ->
        let pool = Buffers.create ~size:1 () in
        let b = Option.get (Buffers.allocate pool) in
        Buffers.free pool b;
        ignore (Buffers.read pool b ~synchronized:true ~word:0);
        Alcotest.(check bool) "fault" true
          (List.exists
             (function Buffers.Use_after_free _ -> true | _ -> false)
             (Buffers.faults pool)));
    t "read while filling is the race" `Quick (fun () ->
        let pool = Buffers.create ~size:1 () in
        let b = Option.get (Buffers.allocate ~filling:true pool) in
        b.Buffers.words.(0) <- 7;
        (* unsynchronised read sees garbage (0) and records the fault *)
        Alcotest.(check int) "stale" 0
          (Buffers.read pool b ~synchronized:false ~word:0);
        Alcotest.(check bool) "fault" true
          (List.exists
             (function Buffers.Read_before_fill _ -> true | _ -> false)
             (Buffers.faults pool));
        Buffers.mark_full b;
        Alcotest.(check int) "after fill" 7
          (Buffers.read pool b ~synchronized:false ~word:0));
    t "refcount keeps the buffer alive" `Quick (fun () ->
        let pool = Buffers.create ~size:1 () in
        let b = Option.get (Buffers.allocate pool) in
        Buffers.incr_refcount b;
        Buffers.free pool b;
        Alcotest.(check int) "still held" 0 (Buffers.free_count pool);
        Buffers.free pool b;
        Alcotest.(check int) "released" 1 (Buffers.free_count pool);
        Alcotest.(check int) "no faults" 0 (List.length (Buffers.faults pool)));
  ]

(* property: a random sequence of allocs/frees keeps the pool well-formed *)
let prop_pool_well_formed =
  QCheck.Test.make ~name:"pool stays well-formed under random ops" ~count:100
    QCheck.(list (int_bound 2))
    (fun ops ->
      let pool = Buffers.create ~size:4 () in
      let held = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 -> (
            match Buffers.allocate pool with
            | Some b -> held := b :: !held
            | None -> ())
          | 1 -> (
            match !held with
            | b :: rest ->
              Buffers.free pool b;
              held := rest
            | [] -> ())
          | _ -> (
            match !held with
            | b :: _ ->
              Buffers.write pool b ~word:0 ~value:1;
              ignore (Buffers.read pool b ~synchronized:true ~word:0)
            | [] -> ()))
        ops;
      Buffers.well_formed pool)

(* ------------------------------------------------------------------ *)
(* lanes                                                               *)
(* ------------------------------------------------------------------ *)

let msg lane =
  {
    Message.opcode = "MSG_NAK";
    src = 0;
    dst = 1;
    addr = 0;
    len = Message.Len_nodata;
    has_data = false;
    data = [||];
    lane;
  }

let lane_cases =
  [
    t "send and drain" `Quick (fun () ->
        let lanes = Lanes.create () in
        Alcotest.(check bool) "accepted" true (Lanes.send lanes (msg 2));
        Alcotest.(check int) "pending" 1 (Lanes.pending lanes);
        let out = Lanes.drain lanes in
        Alcotest.(check int) "drained" 1 (List.length out);
        Alcotest.(check int) "empty" 0 (Lanes.pending lanes));
    t "capacity overflow" `Quick (fun () ->
        let lanes = Lanes.create ~capacity:2 () in
        Alcotest.(check bool) "1" true (Lanes.send lanes (msg 0));
        Alcotest.(check bool) "2" true (Lanes.send lanes (msg 0));
        Alcotest.(check bool) "3 rejected" false (Lanes.send lanes (msg 0));
        Alcotest.(check bool) "fault" true (Lanes.faults lanes <> []));
    t "space reporting" `Quick (fun () ->
        let lanes = Lanes.create ~capacity:3 () in
        Alcotest.(check int) "full space" 3 (Lanes.space lanes 1);
        ignore (Lanes.send lanes (msg 1));
        Alcotest.(check int) "one used" 2 (Lanes.space lanes 1));
    t "drain prefers the reply lane" `Quick (fun () ->
        let lanes = Lanes.create () in
        ignore (Lanes.send lanes (msg Flash_api.lane_net_request));
        ignore (Lanes.send lanes (msg Flash_api.lane_net_reply));
        match Lanes.drain lanes with
        | first :: _ ->
          Alcotest.(check int) "reply first" Flash_api.lane_net_reply
            first.Message.lane
        | [] -> Alcotest.fail "nothing drained");
  ]

(* ------------------------------------------------------------------ *)
(* message length consistency                                          *)
(* ------------------------------------------------------------------ *)

let message_cases =
  [
    t "consistent combinations" `Quick (fun () ->
        let mk has_data len =
          { (msg 0) with Message.has_data; len }
        in
        Alcotest.(check bool) "data+cacheline" true
          (Message.length_consistent (mk true Message.Len_cacheline));
        Alcotest.(check bool) "nodata+0" true
          (Message.length_consistent (mk false Message.Len_nodata));
        Alcotest.(check bool) "data+0 bad" false
          (Message.length_consistent (mk true Message.Len_nodata));
        Alcotest.(check bool) "nodata+word bad" false
          (Message.length_consistent (mk false Message.Len_word)));
    t "payload words per header length" `Quick (fun () ->
        Alcotest.(check (list int)) "words" [ 0; 1; 16 ]
          (List.map Message.length_words
             [ Message.Len_nodata; Message.Len_word; Message.Len_cacheline ]));
  ]

(* ------------------------------------------------------------------ *)
(* directory organisations: shared model-based property                *)
(* ------------------------------------------------------------------ *)

type dir_op = Add of int | Remove of int | Set_dirty of int | Clear_dirty

let dir_op_gen n_nodes =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Add n) (int_bound (n_nodes - 1));
        map (fun n -> Remove n) (int_bound (n_nodes - 1));
        map (fun n -> Set_dirty n) (int_bound (n_nodes - 1));
        return Clear_dirty;
      ])

(* run the same ops against the implementation and a reference set *)
let check_against_model (module D : Directory.S) ops =
  let n_nodes = 4 in
  let dir = D.create ~n_nodes ~n_lines:1 in
  let reference = Hashtbl.create 8 in
  let ref_sharers () =
    Hashtbl.fold (fun n () acc -> n :: acc) reference [] |> List.sort compare
  in
  List.for_all
    (fun op ->
      (match op with
      | Add n ->
        D.add_sharer dir ~line:0 ~node:n;
        Hashtbl.replace reference n ()
      | Remove n ->
        D.remove_sharer dir ~line:0 ~node:n;
        Hashtbl.remove reference n
      | Set_dirty n ->
        D.set_dirty dir ~line:0 ~owner:n;
        (* exclusive ownership: implementations may clear other sharers,
           so resynchronise the reference with the implementation *)
        Hashtbl.reset reference;
        List.iter (fun s -> Hashtbl.replace reference s ())
          (D.sharers dir ~line:0)
      | Clear_dirty -> D.clear_dirty dir ~line:0);
      D.well_formed dir
      && D.sharers dir ~line:0 = ref_sharers ()
      && List.for_all
           (fun n -> D.is_sharer dir ~line:0 ~node:n = Hashtbl.mem reference n)
           [ 0; 1; 2; 3 ])
    ops

(* coarse vectors deliberately over-approximate: the implementation's
   sharer set must contain the reference set, never miss a member *)
let check_superset_model (module D : Directory.S) ops =
  let n_nodes = 4 in
  let dir = D.create ~n_nodes ~n_lines:1 in
  let reference = Hashtbl.create 8 in
  List.for_all
    (fun op ->
      (match op with
      | Add n ->
        D.add_sharer dir ~line:0 ~node:n;
        Hashtbl.replace reference n ()
      | Remove n ->
        D.remove_sharer dir ~line:0 ~node:n;
        Hashtbl.remove reference n
      | Set_dirty n -> D.set_dirty dir ~line:0 ~owner:n
      | Clear_dirty -> D.clear_dirty dir ~line:0);
      D.well_formed dir
      && Hashtbl.fold
           (fun n () acc -> acc && D.is_sharer dir ~line:0 ~node:n)
           reference true)
    ops

let dir_props =
  List.map
    (fun (module D : Directory.S) ->
      if String.equal D.name "coarsevector" then
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make
             ~name:"coarsevector never loses a sharer (over-approximates)"
             ~count:100
             (QCheck.make QCheck.Gen.(list_size (0 -- 40) (dir_op_gen 4)))
             (fun ops -> check_superset_model (module D) ops))
      else
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make
             ~name:(Printf.sprintf "%s directory agrees with a set model" D.name)
             ~count:100
             (QCheck.make QCheck.Gen.(list_size (0 -- 40) (dir_op_gen 4)))
             (fun ops -> check_against_model (module D) ops)))
    Directory.all

let dir_unit_cases =
  List.concat_map
    (fun (module D : Directory.S) ->
      [
        t (D.name ^ ": dirty owner round trip") `Quick (fun () ->
            let d = D.create ~n_nodes:4 ~n_lines:2 in
            D.set_dirty d ~line:0 ~owner:2;
            Alcotest.(check bool) "dirty" true (D.is_dirty d ~line:0);
            Alcotest.(check (option int)) "owner" (Some 2) (D.owner d ~line:0);
            Alcotest.(check bool) "other line clean" false
              (D.is_dirty d ~line:1);
            D.clear_dirty d ~line:0;
            Alcotest.(check bool) "cleared" false (D.is_dirty d ~line:0));
        t (D.name ^ ": clear empties the line") `Quick (fun () ->
            let d = D.create ~n_nodes:4 ~n_lines:1 in
            D.add_sharer d ~line:0 ~node:1;
            D.add_sharer d ~line:0 ~node:3;
            D.clear d ~line:0;
            Alcotest.(check (list int)) "no sharers" []
              (D.sharers d ~line:0);
            Alcotest.(check bool) "well formed" true (D.well_formed d));
      ])
    Directory.all

let suite =
  ( "machine model",
    buffer_cases
    @ [ QCheck_alcotest.to_alcotest prop_pool_well_formed ]
    @ lane_cases @ message_cases @ dir_unit_cases @ dir_props )
