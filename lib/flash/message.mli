(** Messages exchanged between FLASH nodes.

    The header's length field and the send's has-data flag are
    deliberately decoupled (it simplifies the MAGIC hardware), which is
    exactly what makes the paper's Section 5 checker necessary. *)

type length = Len_nodata | Len_word | Len_cacheline

type t = {
  opcode : string;
  src : int;
  dst : int;
  addr : int;
  len : length;
  has_data : bool;
  data : int array;
  lane : int;
}

val length_words : length -> int
val length_consistent : t -> bool
(** false on the two inconsistencies the msg_length checker hunts: a data
    send with zero length, or a no-data send with a non-zero length *)
