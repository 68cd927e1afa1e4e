(** Group commit: batch many committed operations under one [fsync].

    It alone numbers, writes, cuts and compacts a machine's two logs,
    {!Store.wal_blob} and the fleet journal ({!val-reopen}).

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
    and a flush counter record the write-ahead log's amortization only.

    The clock is injected ([now]) so the monitor can time the flush
    wait in deterministic machine cycles — chaos runs replay. *)

type t

val create : ?max_batch:int -> ?now:(unit -> int) -> Store.t -> t
(** A writer of {!Store.wal_blob} whose first record is seq 1.
    [max_batch] defaults to 1 (fsync per append — the pre-group-commit
    behavior) and must be positive ([Invalid_argument] otherwise); [now]
    defaults to a frozen clock. *)

val append : t -> string -> unit
(** Append one committed record, numbered {!val-seq} + 1; flush if the
    batch is full. May raise {!Store.Crash} from the triggered flush. *)

val flush : t -> unit
(** Make every pending record durable now. No-op when nothing is
    pending. May raise {!Store.Crash} at the blob's append point (a torn
    write, after which the CRC keeps the batch whole or drops it) or
    the [wal.fsync] point (the batch lost); either way no record is
    half-kept and the acknowledgement floor is unchanged. *)

val install : t -> string list -> unit
(** Make [payloads], numbered from 1, the whole log in one atomic
    {!Store.replace}; the queued records are dropped unwritten. May raise
    {!Store.Crash} at the [store.dir_fsync] point, leaving the old log. *)

val note_durable : t -> seq:int -> unit
(** A checkpoint covering every record up to [seq] is durable: raise
    the acknowledgement floor to [seq], drop the pending batch unwritten
    once the floor reaches the tail, and durably drop the covered
    records from the log in one atomic {!Store.replace}. May raise
    {!Store.Crash} at the [store.dir_fsync] point, leaving the full
    log, whose covered records replay skips. *)

val pending : t -> int
(** Records appended but not yet durable. *)

val durable_seq : t -> int
(** Highest sequence number known durable (the acknowledgement floor). *)

val seq : t -> int
(** Sequence number of the last record appended or recovered. *)

val reopen : blob:string -> Store.t -> ((int * string) list -> unit) -> t
(** [reopen ~blob store replay] hands [replay] [blob]'s durable records,
    in log order, seqs unchecked. If it returns, a torn tail is cut
    ({!Store.truncate}) and the result writes [blob], numbered after
    the last record, only on {!val-flush}, without metrics; if it
    raises, the blob is left as it was. *)

type recovery = {
  records : int; (** Records in the durable log. *)
  replayed : int; (** Records applied. *)
  cut : bool; (** Bytes past the replayed records were cut from the log. *)
  stopped : string option; (** Why replay stopped before the end, if it did. *)
}

val recover :
  ?max_batch:int ->
  ?now:(unit -> int) ->
  Store.t ->
  after:int ->
  (string -> (unit, string) result) ->
  t * recovery
(** [recover store ~after apply] replays {!Store.wal_blob} through [apply] with
    fault injection suspended, as {!Wal.replay} does. If the tail was
    torn or replay stopped, it then rewrites the log as the records
    applied, with injection unmasked. The writer it returns numbers its
    next record after them; arm logging only then, since the replayed
    records are already logged. May raise {!Store.Crash} from the
    rewrite. *)
