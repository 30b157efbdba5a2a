(** An executable bitvector coherence protocol, hand-written in Clite.

    This is the protocol the FlashLite-substitute simulator runs.  Two
    variants are provided: [clean] (correct) and [buggy], which seeds four
    of the paper's bug classes on the same rare corner paths the checkers
    find them on statically:

    + a double free on the dirty-remote GET path (deadlocks the node after
      the pool drains);
    + a message-length/data mismatch on the uncached-read path taken only
      when the line is dirty remotely *and* the reply queue is full
      (silent data corruption);
    + an unsynchronised first-byte read of the data buffer in the PUT
      receive handler, on a corner path (data race);
    + a buffer leak in the invalidation handler when the line is not
      actually cached (slow leak; the node wedges days later).

    The simulator drives processor reads/writes/uncached reads through
    these handlers and checks data integrity, so the paper's
    motivating claim — rare-path bugs survive simulation while the static
    checkers pinpoint them immediately — can be measured. *)

let preamble =
  {|
/* handlers compute a line's home node as addr % numNodes */
void CACHE_WRITE_LINE(long addr);
void CACHE_READ_LINE(long addr);
void CACHE_INVALIDATE(long addr);
int CACHE_PRESENT(long addr);
void MEMORY_READ_LINE(long addr);
void MEMORY_WRITE_LINE(long addr);
|}

(* The handlers, with [%BUG_x%] markers replaced per variant. *)
let template =
  {|
/* home node: a remote processor wants a shared copy */
void NILocalGet(void)
{
  HANDLER_DEFS();
  SIM_HANDLER_HOOK();
  long addr;
  long src;
  addr = HANDLER_GLOBALS(header.nh.address);
  src = HANDLER_GLOBALS(header.nh.src);
  LOAD_DIR_ENTRY(DIR_ADDR(addr));
  if (HANDLER_GLOBALS(dirEntry.dirty)) {
    /* dirty in a remote cache: ask the owner to write back and make
       the requester retry */
    HANDLER_GLOBALS(header.nh.dest) = HANDLER_GLOBALS(dirEntry.owner);
    HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
    NI_SEND(MSG_INTERVENTION, F_NODATA, 0, W_NOWAIT, 1, 0);
    HANDLER_GLOBALS(header.nh.dest) = src;
    HANDLER_GLOBALS(header.nh.type) = MSG_NAK;
    NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, 0);
    WRITEBACK_DIR_ENTRY(DIR_ADDR(addr));
    FREE_DB();
    %BUG_DOUBLE_FREE%
    return;
  }
  HANDLER_GLOBALS(dirEntry.vector) = HANDLER_GLOBALS(dirEntry.vector) | (1 << src);
  WRITEBACK_DIR_ENTRY(DIR_ADDR(addr));
  MEMORY_READ_LINE(addr);
  HANDLER_GLOBALS(header.nh.dest) = src;
  HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
  NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0);
  FREE_DB();
}

/* home node: a remote processor wants an exclusive copy */
void NILocalGetX(void)
{
  HANDLER_DEFS();
  SIM_HANDLER_HOOK();
  long addr;
  long src;
  long node;
  addr = HANDLER_GLOBALS(header.nh.address);
  src = HANDLER_GLOBALS(header.nh.src);
  LOAD_DIR_ENTRY(DIR_ADDR(addr));
  if (HANDLER_GLOBALS(dirEntry.dirty)) {
    HANDLER_GLOBALS(header.nh.dest) = HANDLER_GLOBALS(dirEntry.owner);
    HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
    NI_SEND(MSG_INTERVENTION, F_NODATA, 0, W_NOWAIT, 1, 0);
    HANDLER_GLOBALS(header.nh.dest) = src;
    HANDLER_GLOBALS(header.nh.type) = MSG_NAK;
    NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, 0);
    WRITEBACK_DIR_ENTRY(DIR_ADDR(addr));
    FREE_DB();
    return;
  }
  /* invalidate every current sharer except the requester */
  node = 0;
  while (node < numNodes) {
    if (node != src && (HANDLER_GLOBALS(dirEntry.vector) & (1 << node))) {
      WAIT_FOR_OUTPUT_SPACE(2);
      HANDLER_GLOBALS(header.nh.dest) = node;
      HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
      NI_SEND(MSG_INVAL, F_NODATA, 0, W_NOWAIT, 1, 0);
    }
    node = node + 1;
  }
  HANDLER_GLOBALS(dirEntry.vector) = 0;
  HANDLER_GLOBALS(dirEntry.dirty) = 1;
  HANDLER_GLOBALS(dirEntry.owner) = src;
  WRITEBACK_DIR_ENTRY(DIR_ADDR(addr));
  MEMORY_READ_LINE(addr);
  HANDLER_GLOBALS(header.nh.dest) = src;
  HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
  NI_SEND(MSG_PUTX, F_DATA, 0, W_NOWAIT, 1, 0);
  FREE_DB();
}

/* home node: the owner writes a dirty line back */
void NILocalWB(void)
{
  HANDLER_DEFS();
  SIM_HANDLER_HOOK();
  long addr;
  long src;
  addr = HANDLER_GLOBALS(header.nh.address);
  src = HANDLER_GLOBALS(header.nh.src);
  WAIT_FOR_DB_FULL(addr);
  MEMORY_WRITE_LINE(addr);
  LOAD_DIR_ENTRY(DIR_ADDR(addr));
  HANDLER_GLOBALS(dirEntry.dirty) = 0;
  HANDLER_GLOBALS(dirEntry.owner) = 0 - 1;
  WRITEBACK_DIR_ENTRY(DIR_ADDR(addr));
  HANDLER_GLOBALS(header.nh.dest) = src;
  HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
  NI_SEND(MSG_WB_ACK, F_NODATA, 0, W_NOWAIT, 1, 0);
  FREE_DB();
}

/* owner node: the home asks for the dirty line back */
void NIIntervention(void)
{
  HANDLER_DEFS();
  SIM_HANDLER_HOOK();
  long addr;
  addr = HANDLER_GLOBALS(header.nh.address);
  CACHE_READ_LINE(addr);
  CACHE_INVALIDATE(addr);
  HANDLER_GLOBALS(header.nh.dest) = addr % numNodes;
  HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
  NI_SEND(MSG_WB, F_DATA, 0, W_NOWAIT, 1, 0);
  FREE_DB();
}

/* requester node: shared data arrives */
void NIRemotePut(void)
{
  HANDLER_DEFS();
  SIM_HANDLER_HOOK();
  long addr;
  long v;
  addr = HANDLER_GLOBALS(header.nh.address);
  %BUG_RACE_READ%
  WAIT_FOR_DB_FULL(addr);
  CACHE_WRITE_LINE(addr);
  HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
  PI_SEND(F_DATA, 0, 0, W_NOWAIT, 1, 0);
  FREE_DB();
}

/* requester node: exclusive data arrives */
void NIRemotePutX(void)
{
  HANDLER_DEFS();
  SIM_HANDLER_HOOK();
  long addr;
  addr = HANDLER_GLOBALS(header.nh.address);
  WAIT_FOR_DB_FULL(addr);
  CACHE_WRITE_LINE(addr);
  HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
  PI_SEND(F_DATA, 0, 0, W_NOWAIT, 1, 0);
  FREE_DB();
}

/* requester node: home said retry */
void NIRemoteNAK(void)
{
  HANDLER_DEFS();
  SIM_HANDLER_HOOK();
  FREE_DB();
}

/* sharer node: invalidate the local copy */
void NIInval(void)
{
  HANDLER_DEFS();
  SIM_HANDLER_HOOK();
  long addr;
  addr = HANDLER_GLOBALS(header.nh.address);
  %BUG_LEAK%
  CACHE_INVALIDATE(addr);
  FREE_DB();
}

/* home node: writeback acknowledged (nothing to do) */
void NIWBAck(void)
{
  HANDLER_DEFS();
  SIM_HANDLER_HOOK();
  FREE_DB();
}

/* home node: uncached read of one word */
void NIUncachedRead(void)
{
  HANDLER_DEFS();
  SIM_HANDLER_HOOK();
  long addr;
  long src;
  addr = HANDLER_GLOBALS(header.nh.address);
  src = HANDLER_GLOBALS(header.nh.src);
  LOAD_DIR_ENTRY(DIR_ADDR(addr));
  HANDLER_GLOBALS(header.nh.dest) = src;
  if (HANDLER_GLOBALS(dirEntry.dirty)) {
    HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
    HANDLER_GLOBALS(header.nh.type) = MSG_NAK;
    if (OUTPUT_QUEUE_FULL(3)) {
      /* the rare corner: dirty in another node's cache concurrent with
         a full reply queue on the local node */
      %BUG_LEN_MISMATCH%
    } else {
      HANDLER_GLOBALS(header.nh.dest) = HANDLER_GLOBALS(dirEntry.owner);
      NI_SEND(MSG_INTERVENTION, F_NODATA, 0, W_NOWAIT, 1, 0);
      HANDLER_GLOBALS(header.nh.dest) = src;
      WAIT_FOR_OUTPUT_SPACE(3);
      NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, 0);
    }
    FREE_DB();
    return;
  }
  MEMORY_READ_LINE(addr);
  HANDLER_GLOBALS(header.nh.len) = LEN_WORD;
  WAIT_FOR_OUTPUT_SPACE(3);
  NI_SEND(MSG_UNCACHED_REPLY, F_DATA, 0, W_NOWAIT, 1, 0);
  FREE_DB();
}

/* requester node: the uncached word arrives */
void NIUncachedReply(void)
{
  HANDLER_DEFS();
  SIM_HANDLER_HOOK();
  long addr;
  addr = HANDLER_GLOBALS(header.nh.address);
  WAIT_FOR_DB_FULL(addr);
  HANDLER_GLOBALS(header.nh.len) = LEN_WORD;
  PI_SEND(F_DATA, 0, 0, W_NOWAIT, 1, 0);
  FREE_DB();
}
|}

let clean_substitutions =
  [
    ("%BUG_DOUBLE_FREE%", "");
    ("%BUG_RACE_READ%", "");
    ( "%BUG_LEN_MISMATCH%",
      "WAIT_FOR_OUTPUT_SPACE(3);\n      NI_SEND(MSG_NAK, F_NODATA, 0, W_NOWAIT, 1, 0);" );
    ("%BUG_LEAK%", "");
  ]

let buggy_substitutions =
  [
    (* double free on a rare corner of the dirty-remote path *)
    ( "%BUG_DOUBLE_FREE%",
      "if (HANDLER_GLOBALS(header.nh.misc)) {\n      FREE_DB();\n    }" );
    (* first-byte peek before synchronising, on a corner path *)
    ( "%BUG_RACE_READ%",
      "if (HANDLER_GLOBALS(header.nh.misc)) {\n\
      \    v = MISCBUS_READ_DB(addr, 0);\n\
      \    protoStats[9] = protoStats[9] + v;\n\
      \  }" );
    (* forgets the length is still LEN_NODATA from the NAK set-up *)
    ( "%BUG_LEN_MISMATCH%",
      "WAIT_FOR_OUTPUT_SPACE(3);\n\
      \      MEMORY_READ_LINE(addr);\n\
      \      NI_SEND(MSG_UNCACHED_REPLY, F_DATA, 0, W_NOWAIT, 1, 0);" );
    (* returns without freeing when the line is not cached here *)
    ( "%BUG_LEAK%",
      "if (!CACHE_PRESENT(addr)) {\n\
      \    return;\n\
      \  }" );
  ]

(* split a string on a literal substring *)
let split_on_string ~sep s =
  let sl = String.length sep in
  if sl = 0 then [ s ]
  else begin
    let parts = ref [] in
    let start = ref 0 in
    let i = ref 0 in
    let n = String.length s in
    while !i <= n - sl do
      if String.sub s !i sl = sep then begin
        parts := String.sub s !start (!i - !start) :: !parts;
        i := !i + sl;
        start := !i
      end
      else incr i
    done;
    parts := String.sub s !start (n - !start) :: !parts;
    List.rev !parts
  end

let replace_all subs text =
  List.fold_left
    (fun acc (marker, replacement) ->
      String.concat replacement (split_on_string ~sep:marker acc))
    text subs

(** Which handler runs for each incoming network message. *)
let handler_map : (string * string) list =
  [
    ("MSG_GET", "NILocalGet");
    ("MSG_GETX", "NILocalGetX");
    ("MSG_WB", "NILocalWB");
    ("MSG_INTERVENTION", "NIIntervention");
    ("MSG_PUT", "NIRemotePut");
    ("MSG_PUTX", "NIRemotePutX");
    ("MSG_NAK", "NIRemoteNAK");
    ("MSG_INVAL", "NIInval");
    ("MSG_WB_ACK", "NIWBAck");
    ("MSG_UNCACHED_READ", "NIUncachedRead");
    ("MSG_UNCACHED_REPLY", "NIUncachedReply");
  ]

type variant = Clean | Buggy

(** The protocol source for a variant. *)
let source (v : variant) : string =
  let subs =
    match v with Clean -> clean_substitutions | Buggy -> buggy_substitutions
  in
  Prelude.text ^ preamble ^ replace_all subs template

(** Parse a variant into a checked program. *)
let program (v : variant) : Ast.tunit list =
  match Frontend.parse_strings [ ("golden.c", source v) ] with
  | tus, [] -> tus
  | _, diags ->
    failwith
      (String.concat "\n"
         ("Golden: the protocol source does not parse:"
         :: List.map Diag.to_string diags))

(** Protocol spec for the golden handlers (used when static-checking the
    same source the simulator runs). *)
let spec : Flash_api.spec =
  {
    Flash_api.p_name = "golden";
    p_handlers =
      List.map
        (fun (_, h) ->
          {
            Flash_api.h_name = h;
            h_kind = Flash_api.Hw_handler;
            h_lane_allowance = [| 1; 0; 2; 1 |];
            h_no_stack = false;
          })
        handler_map;
    p_free_funcs = [];
    p_use_funcs = [];
    p_cond_free_funcs = [];
  }
