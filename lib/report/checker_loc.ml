(** Source sizes of our checker implementations, for the Table 7
    comparison against the paper's metal extensions.

    Measured at release time with [wc -l] equivalents over the checker
    sources (doc comments excluded); kept as constants so the table
    reproduction needs no filesystem access to the source tree. *)

let by_name : (string * int) list =
  [
    ("buffer_mgmt", 175);
    ("msg_length", 60);
    ("lanes", 150);
    ("wait_for_db", 40);
    ("alloc_check", 55);
    ("dir_entry", 120);
    ("send_wait", 85);
    ("exec_restrict", 185);
    ("no_float", 45);
  ]
