(** Checkpoints: the monitor's durable state, written incrementally.

    A checkpoint bounds recovery time: recovery loads the newest valid
    checkpoint and replays only the WAL suffix after it. This module is
    the one place that knows the checkpoint format and its write order.

    Format. Every captree bucket of {!Cap.Captree.seg_span} ids is a
    *segment*: payload [raw sha256 ^ encoded node list], appended to
    {!Persist.Store.seg_blob} and addressed by its hash, so a bucket
    whose contents did not change (or changed back) dedups across
    checkpoints. A *manifest* record in {!Persist.Store.snap_blob}
    lists, in bucket order, the (bucket, hash) pairs that together hold
    the tree, alongside the small inline state: counters, every
    domain's configuration and the per-core schedule. Both streams use
    the WAL's CRC framing. A node is written as its lineage, rights,
    clean-up policy, origin and activation state. Child sets are not
    written: {!Cap.Captree.restore} derives them from the parent
    pointers, so a hub node's segment stays O(bucket), not O(children).
    Hardware state is not written either: recovery re-derives it from
    the restored tree.

    Write order, crash-safe:
    + serialize the buckets mutated since the previous checkpoint,
      append and fsync the segments not already durable;
    + append and fsync the manifest — the commit point;
    + compact the WAL prefix the manifest covers;
    + drop segments the newest manifest no longer references, once
      dead ones dominate.

    A crash inside 1 leaves unreferenced segments (garbage, collected
    later); inside 2, a torn manifest the newest-valid scan skips;
    inside 3 or 4, covered WAL records (replay filters them) or the
    pre-collection segment stream. Every window recovers. *)

type state = {
  seq : int; (** Committed-operation index the checkpoint covers. *)
  next_domain : Domain.id;
  domains : Domain.t list;
  current : Domain.id list; (** Per-core running domain. *)
  stacks : Domain.id list list; (** Per-core return stacks, innermost first. *)
  tree : Cap.Captree.t;
}

type writer
(** What a writer knows of its store: the captree generation its last
    checkpoint covered, each bucket's segment hash as of then, the
    segment hashes durable in the store, and whether either stream may
    end in a torn frame. *)

val writer : Persist.Store.t -> writer
(** A writer that assumes nothing of [store]: its first {!write}
    repairs torn tails and serializes every bucket. *)

val write : writer -> group:Persist.Group.t -> state -> unit
(** Take a checkpoint of [state] in the order above. At the commit
    point [group]'s acknowledgement floor rises to [state.seq]. May
    raise {!Persist.Store.Crash} at the [segment.write],
    [snapshot.write], [manifest.swap] or [store.dir_fsync] fault points.
    A crash of [manifest.swap] leaves a deterministic torn prefix of the
    manifest. *)

type loaded = {
  state : state option; (** The newest checkpoint that decodes, if any. *)
  scanned : int; (** Manifest records in the stream. *)
  torn : bool; (** The stream had an undecodable record or a torn tail. *)
  writer : writer;
      (** Seeded from the store: its next {!write} re-serializes only
          buckets mutated since [state]. *)
}

val load : Persist.Store.t -> loaded
(** Never raises. Walks the manifests newest first and skips any that
    is torn, fails its CRC, holds a bad enum code or range, or names a
    segment the store no longer carries. *)
