(** Durable byte stores for the monitor's redo layer.

    A store holds named append-only blobs — {!wal_blob} for the
    write-ahead log, {!snap_blob} for checkpoint manifests, {!seg_blob}
    for the content-addressed captree segments they name. Appends land
    in a volatile pending buffer; {!fsync} moves pending bytes to the
    durable medium; {!read} returns durable bytes only (what a restart
    would actually find). {!reset} durably truncates a blob (the WAL
    once a checkpoint covers all of it); {!replace} atomically
    substitutes a blob's entire durable contents (WAL compaction,
    segment collection).

    Two implementations:
    - {!mem}: an in-memory block device with *injectable torn writes*.
      Five {!Fault} points model power loss at the worst moments:
      [wal.append], [snapshot.write] and [segment.write] flush an
      arbitrary prefix of the buffered bytes (a torn sector) and then
      raise {!Crash}; [wal.fsync] loses the pending buffer entirely and
      raises {!Crash}; [store.dir_fsync] drops a rename/truncation on
      the floor (durable contents unchanged) and raises {!Crash}.
      The torn length is a deterministic function of the buffered bytes
      and the trip count, so chaos runs replay from their seed.
    - {!file}: a file-backed store (one file per blob under a
      directory), honoring the same fault points, so crash workloads can
      also be run against a real filesystem. [reset], [truncate] and
      [replace] swap the file atomically via a rename, and the parent
      directory is fsynced after every rename and first file creation
      so the swap cannot vanish on power loss.

    A simulated power failure raises {!Crash}: the in-memory monitor
    that was writing is dead — the only way forward is
    [Monitor.recover] from the store's durable contents. *)

exception Crash of string
(** Simulated power failure at the named fault point. *)

type t = {
  store_name : string;
  read : string -> string;
  append : string -> string -> unit;
  fsync : string -> unit;
  reset : string -> unit;
  truncate : string -> int -> unit;
  replace : string -> string -> unit;
  power_fail : unit -> unit;
}

val wal_blob : string
(** ["wal"] — the write-ahead log of committed operations. *)

val snap_blob : string
(** ["snap"] — the append-only checkpoint manifest stream (newest valid
    wins). Appends to it, and to any blob other than {!wal_blob} and
    {!seg_blob}, pass the [snapshot.write] fault point. *)

val seg_blob : string
(** ["segs"] — the content-addressed captree segment stream checkpoint
    manifests name. *)

val read : t -> string -> string
val append : t -> string -> string -> unit
val fsync : t -> string -> unit
val reset : t -> string -> unit

val truncate : t -> string -> int -> unit
(** [truncate t blob keep] durably discards every byte past offset
    [keep] — the tail-repair primitive: a crash mid-append leaves a torn
    frame that hides everything appended after it from the
    newest-valid-record scan, so writers truncate back to the valid
    prefix before appending. Pending (unflushed) bytes are untouched.
    File-backed stores use the same atomic-rename discipline as
    {!reset}. *)

val replace : t -> string -> string -> unit
(** [replace t blob contents] atomically substitutes the blob's entire
    durable contents — the segment-GC and fleet-journal compaction
    primitive. A crash leaves either the old bytes or the new bytes,
    never a mixture. The blob's pending (unflushed) bytes are dropped:
    they are not part of [contents], so a later {!fsync} appends only
    what is appended after the replace. A file store fsyncs the new
    contents before the rename publishes them. *)

val power_fail : t -> unit
(** Drop every blob's pending (unflushed) buffer — what an actual power
    loss does to the device's write cache. Every injected-crash path
    calls this before raising {!Crash}: without it, stale
    unacknowledged bytes from before the crash would survive the
    "restart" and be flushed into the stream by a later [fsync],
    corrupting the log with duplicated sequence ranges. *)

val torn_len : bytes:string -> trip:int -> int
(** Deterministic torn-prefix length for injected power failures —
    exposed so other persistence layers (manifest swap) can tear their
    writes with the same replayable rule. *)

val mem : ?preload:(string * string) list -> unit -> t
(** Fresh in-memory store; [preload] gives blobs durable contents, as
    [(blob, contents)] pairs (tests use this to hand recovery a copy of
    a store, or an arbitrarily truncated or corrupted log). *)

val file : dir:string -> t
(** File-backed store rooted at [dir] (created if missing). Reopening
    the same directory sees the previous run's durable bytes. *)
