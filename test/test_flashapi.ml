(** FLASH API vocabulary: lane mapping, opcode classes, spec lookup, and
    the corpus writer. *)

let t = Alcotest.test_case

let api_cases =
  [
    t "PI and IO sends own their lanes" `Quick (fun () ->
        Alcotest.(check (option int)) "PI"
          (Some Flash_api.lane_pi)
          (Flash_api.lane_of_send ~macro:"PI_SEND" ~opcode:None);
        Alcotest.(check (option int)) "IO"
          (Some Flash_api.lane_io)
          (Flash_api.lane_of_send ~macro:"IO_SEND" ~opcode:None));
    t "network lane depends on the opcode class" `Quick (fun () ->
        Alcotest.(check (option int)) "request"
          (Some Flash_api.lane_net_request)
          (Flash_api.lane_of_send ~macro:"NI_SEND" ~opcode:(Some "MSG_GET"));
        Alcotest.(check (option int)) "reply"
          (Some Flash_api.lane_net_reply)
          (Flash_api.lane_of_send ~macro:"NI_SEND" ~opcode:(Some "MSG_PUT")));
    t "unknown macro maps to no lane" `Quick (fun () ->
        Alcotest.(check (option int)) "none" None
          (Flash_api.lane_of_send ~macro:"printf" ~opcode:None));
    t "every opcode is classified exactly once" `Quick (fun () ->
        List.iter
          (fun op ->
            Alcotest.(check bool) (op ^ " request xor reply") true
              (List.mem op Flash_api.msg_opcodes_request
              <> List.mem op Flash_api.msg_opcodes_reply))
          (Flash_api.msg_opcodes_request @ Flash_api.msg_opcodes_reply));
    t "spec lookups" `Quick (fun () ->
        let spec =
          {
            Flash_api.p_name = "t";
            p_handlers =
              [
                {
                  Flash_api.h_name = "HW";
                  h_kind = Flash_api.Hw_handler;
                  h_lane_allowance = [| 0; 0; 0; 1 |];
                  h_no_stack = true;
                };
                {
                  Flash_api.h_name = "SW";
                  h_kind = Flash_api.Sw_handler;
                  h_lane_allowance = [| 0; 0; 0; 1 |];
                  h_no_stack = false;
                };
              ];
            p_free_funcs = [];
            p_use_funcs = [];
            p_cond_free_funcs = [];
          }
        in
        Alcotest.(check bool) "HW is handler" true
          (Flash_api.is_handler spec "HW");
        Alcotest.(check bool) "SW is handler" true
          (Flash_api.is_handler spec "SW");
        Alcotest.(check bool) "other is not" false
          (Flash_api.is_handler spec "util");
        Alcotest.(check bool) "kind" true
          (Flash_api.handler_kind spec "SW" = Flash_api.Sw_handler);
        Alcotest.(check bool) "missing is procedure" true
          (Flash_api.handler_kind spec "util" = Flash_api.Procedure));
  ]

let corpus_io_cases =
  [
    t "write_to_dir emits every file" `Slow (fun () ->
        let corpus = Corpus.generate () in
        let dir = Filename.temp_file "corpus" "" in
        Sys.remove dir;
        Corpus.write_to_dir corpus dir;
        List.iter
          (fun (p : Corpus.protocol) ->
            List.iter
              (fun (file, src) ->
                let path = Filename.concat dir file in
                Alcotest.(check bool) (file ^ " exists") true
                  (Sys.file_exists path);
                let ic = open_in_bin path in
                let n = in_channel_length ic in
                let on_disk = really_input_string ic n in
                close_in ic;
                Alcotest.(check int) (file ^ " size")
                  (String.length src) (String.length on_disk))
              p.Corpus.files)
          corpus.Corpus.protocols;
        (* a written file can be read back by the front end *)
        let sample =
          Filename.concat dir (fst (List.hd
            (List.hd corpus.Corpus.protocols).Corpus.files))
        in
        let tu =
          Parsed.ok
            (Frontend.parse ~file:sample
               (In_channel.with_open_bin sample In_channel.input_all))
        in
        Alcotest.(check bool) "parses from disk" true
          (Ast.functions tu <> []));
    t "prelude LOC constant matches the text" `Quick (fun () ->
        Alcotest.(check int) "loc" (Frontend.loc_count Prelude.text)
          Prelude.loc);
  ]

let suite = ("flash api + corpus io", api_cases @ corpus_io_cases)
