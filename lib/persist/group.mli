(** Group commit: batch many committed operations under one [fsync].

    The monitor commits an operation in memory, appends its redo record
    here, and the queue decides when the expensive durability barrier
    actually runs: after {!val-append} has accumulated [max_batch]
    records, or on an explicit {!val-flush}. A flush writes the batch as
    one {!Wal} frame in one store append, then fsyncs; with [max_batch]
    1 that frame is the record's own, as before batch frames. An
    operation counts as *acknowledged* only once its batch is durable —
    {!val-durable_seq} is the acknowledgement floor recovery must honor
    (the redo-log contract: acknowledged ops are never lost; pending
    unacknowledged ops may be dropped by a crash but never torn).

    Two histograms ([persist.group.batch], [persist.group.flush_wait])
    and a flush counter record the amortization actually achieved.

    The clock is injected ([now]) so the monitor can time the flush
    wait in deterministic machine cycles — chaos runs replay. *)

type t

val create :
  ?max_batch:int ->
  ?now:(unit -> int) ->
  Store.t ->
  blob:string ->
  durable_seq:int ->
  t
(** [max_batch] defaults to 1 (fsync per append — the pre-group-commit
    behavior); [now] defaults to a frozen clock. [durable_seq] seeds the
    acknowledgement floor (the checkpoint seq at creation). *)

val append : t -> seq:int -> string -> unit
(** Append one committed record; flush if the batch is full. A batch
    frame holds one run of consecutive seqs, so a break in the
    numbering starts another frame. May raise {!Store.Crash} from the
    triggered flush. *)

val flush : t -> unit
(** Make every pending record durable now. No-op when nothing is
    pending. May raise {!Store.Crash} at the [wal.append] point (a torn
    write, after which the CRC keeps the batch whole or drops it) or
    the [wal.fsync] point (the batch lost); either way no record is
    half-kept and the acknowledgement floor is unchanged. *)

val note_durable : t -> seq:int -> unit
(** Raise the acknowledgement floor to [seq] — called after a
    checkpoint whose manifest covers everything up to [seq]. When the
    floor reaches the tail, the pending batch is dropped unwritten (the
    checkpoint subsumed those records). *)

val pending : t -> int
(** Records appended but not yet durable. *)

val durable_seq : t -> int
(** Highest sequence number known durable (the acknowledgement floor). *)
