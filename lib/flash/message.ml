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

let length_of_string s =
  if String.equal s Flash_api.len_nodata then Some Len_nodata
  else if String.equal s Flash_api.len_word then Some Len_word
  else if String.equal s Flash_api.len_cacheline then Some Len_cacheline
  else None

let string_of_length = function
  | Len_nodata -> Flash_api.len_nodata
  | Len_word -> Flash_api.len_word
  | Len_cacheline -> Flash_api.len_cacheline

(** The inconsistency the message-length checker hunts statically: a
    data send with a zero length (the interface transmits no payload and
    the receiver reads garbage), or a no-data send with a non-zero length
    (the interface transmits stale buffer words). *)
let length_consistent t =
  match (t.has_data, t.len) with
  | true, Len_nodata -> false
  | false, (Len_word | Len_cacheline) -> false
  | true, (Len_word | Len_cacheline) | false, Len_nodata -> true

let pp ppf t =
  Format.fprintf ppf "%s %d->%d addr=0x%x len=%s%s lane=%d" t.opcode t.src
    t.dst t.addr
    (string_of_length t.len)
    (if t.has_data then " +data" else "")
    t.lane
