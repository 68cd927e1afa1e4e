(** Length-prefixed, CRC32-framed record log over a {!Store} blob.

    Frame layout: [varint body-length | u32 crc32(body) | body], where
    [body = varint sequence-number ^ payload] and both varints are
    {!Wire.uint}s. A frame is therefore 6 bytes longer than its payload
    while both the body length and the seq are under 128, and 8 bytes
    longer while both are under 2{^14}. The write-ahead log, both
    checkpoint streams (manifests and segments) and the fleet and
    migrate journals use this framing.

    Reading truncates at the first record that cannot be trusted — a
    header that does not fit or is not canonical, a length pointing
    past the durable bytes, or a CRC mismatch. Everything before the
    cut is returned; everything from the cut on is reported
    ({!read_result.truncated}) and ignored.
    A torn tail is an expected artifact of power loss, never an error:
    recovery proceeds from the valid prefix. *)

type read_result = {
  records : (int * string) list; (** (sequence number, payload), log order. *)
  sizes : int list;
      (** Each record's frame length, header included, in log order:
          its extent in the blob. They sum to [valid_bytes]. *)
  valid_bytes : int; (** Length of the trusted prefix. *)
  truncated : bool; (** Bytes beyond the trusted prefix were discarded. *)
}

val frame : seq:int -> string -> string
(** One framed record, ready to append. *)

val parse : string -> read_result
(** Decode a blob's durable bytes. Total: never raises. *)

(** {2 Replay} *)

type replay = {
  applied : int; (** Records re-applied. *)
  last_seq : int; (** Sequence number of the last record applied ([after] if none). *)
  applied_bytes : int;
      (** Length of the log prefix replay accepted: the summed frame
          sizes of every record before the one it stopped at. The whole
          trusted prefix when replay ran to the end. *)
  stopped : string option; (** Why replay stopped before the end, if it did. *)
}

val replay : read_result -> after:int -> (string -> (unit, string) result) -> replay
(** [replay r ~after apply] feeds the payloads numbered [after + 1],
    [after + 2], ... to [apply] in log order, skipping records at or
    below [after] (a checkpoint covers them). It stops — never fails —
    at a sequence gap, at an [Error], or when [apply] raises, so the
    state is the longest prefix-consistent history the durable bytes
    support. A writer that keeps appending after recovery must first
    cut the blob back to [applied_bytes]: a frame written behind a torn
    or rejected tail would be durable but unreachable. *)

val append : Store.t -> blob:string -> seq:int -> string -> unit
(** Frame and append one record (durable only after [Store.fsync]). *)

val read : Store.t -> blob:string -> read_result

val compact : Store.t -> blob:string -> upto:int -> int
(** [compact store ~blob ~upto] durably drops every record with
    sequence number [<= upto] — the checkpoint already covers them —
    and returns the number of records dropped. If every record is
    covered the blob is reset (which also clears any torn tail); if
    only a prefix is covered the surviving suffix is rewritten with an
    atomic {!Store.replace}. May raise {!Store.Crash} at the
    [store.dir_fsync] fault point. *)
