(* Prints [let digest = "<hex>"]: the MD5 over the files named on the
   command line (base name and contents), in sorted order.  Run as a
   script: [ocaml gen_digest.ml FILE...]. *)
let () =
  let files = List.sort compare (List.tl (Array.to_list Sys.argv)) in
  let part f =
    let text = In_channel.with_open_bin f In_channel.input_all in
    Filename.basename f ^ "\000" ^ Digest.to_hex (Digest.string text)
  in
  Printf.printf "let digest = %S\n"
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map part files))))
