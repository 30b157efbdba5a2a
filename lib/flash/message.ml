(** Messages exchanged between FLASH nodes.

    A message header carries an opcode, a length field and a has-data flag.
    The two are deliberately decoupled (it simplifies the MAGIC hardware),
    which is exactly what makes the paper's Section 5 checker necessary:
    nothing in the hardware keeps them consistent. *)

type length = Len_nodata | Len_word | Len_cacheline

type t = {
  opcode : string;  (** one of {!Flash_api.msg_opcodes_request}/[_reply] *)
  src : int;  (** sending node *)
  dst : int;  (** destination node *)
  addr : int;  (** cache-line address *)
  len : length;
  has_data : bool;  (** the send's data flag (F_DATA / F_NODATA) *)
  data : int array;  (** payload actually carried *)
  lane : int;
}

let length_words = function
  | Len_nodata -> 0
  | Len_word -> 1
  | Len_cacheline -> 16

(** The inconsistency the message-length checker hunts statically: a
    data send with a zero length (the interface transmits no payload and
    the receiver reads garbage), or a no-data send with a non-zero length
    (the interface transmits stale buffer words). *)
let length_consistent t =
  match (t.has_data, t.len) with
  | true, Len_nodata -> false
  | false, (Len_word | Len_cacheline) -> false
  | true, (Len_word | Len_cacheline) | false, Len_nodata -> true
