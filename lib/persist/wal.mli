(** Length-prefixed, CRC32-framed record log over a {!Store} blob.

    Two frame shapes, both [varint body-length | u32 crc32(body) | body]
    ({!Wire.uint} varints):
    - one record, [body = varint seq ^ payload]: 6 bytes over its payload
      while the body length and the seq are under 128, 8 under 2{^14};
    - a batch of two or more records with consecutive seqs, after a
      [0x00] byte (the body length no one-record frame has):
      [body = varint first-seq ^ (varint length ^ payload)...], the
      records filling the body exactly, under one header and one CRC.
    The write-ahead log, both checkpoint streams (manifests and
    segments) and the fleet journal use this framing; {!Group}, which
    writes, compacts and cuts both logs, writes batches.

    Reading truncates at the first frame that cannot be trusted — a
    header that does not fit or is not canonical, a length pointing
    past the durable bytes, a CRC mismatch, or a batch of one record or
    whose records do not fill its body — so each frame is taken whole
    or not at all. Everything from the cut on is reported
    ({!read_result.truncated}) and ignored: a torn tail is an expected
    artifact of power loss, never an error. *)

type read_result = {
  records : (int * string) list; (** (sequence number, payload), log order. *)
  valid_bytes : int; (** Length of the trusted prefix. *)
  truncated : bool; (** Bytes beyond the trusted prefix were discarded. *)
}

val frame : seq:int -> string -> string
(** One framed record, ready to append. *)

val frames : (int * string) list -> string
(** Records framed for one append, each maximal run of consecutive seqs
    as one frame. *)

val parse : string -> read_result
(** Decode a blob's durable bytes. Total: never raises. *)

(** {2 Replay} *)

type replay = {
  applied : int; (** Records re-applied. *)
  last_seq : int; (** Sequence number of the last record applied ([after] if none). *)
  stopped : string option; (** Why replay stopped before the end, if it did. *)
}

val replay : read_result -> after:int -> (string -> (unit, string) result) -> replay
(** [replay r ~after apply] feeds the payloads numbered [after + 1],
    [after + 2], ... to [apply] in log order, skipping records at or
    below [after] (a checkpoint covers them). It stops — never fails —
    at a sequence gap, at an [Error], or when [apply] raises, so the
    state is the longest prefix-consistent history the durable bytes
    support. A writer that keeps appending must first rewrite the blob
    to the records applied, as {!Group.recover} does. *)

val append : Store.t -> blob:string -> seq:int -> string -> unit
(** Frame and append one record (durable only after [Store.fsync]). *)

val read : Store.t -> blob:string -> read_result
