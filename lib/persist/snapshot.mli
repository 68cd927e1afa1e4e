(** Snapshots: a full serialization of the monitor's durable state.

    A snapshot bounds recovery time — recovery loads the newest valid
    snapshot and replays only the WAL suffix after it. Snapshots are
    appended to the {!Store.snap_blob} stream with the same CRC framing
    as WAL records ([seq] = the committed-operation index the snapshot
    captures); a torn snapshot write is detected by the framing, and
    recovery simply falls back to the previous valid snapshot plus a
    longer WAL suffix. The WAL is reset only *after* the snapshot is
    durable, so every crash window leaves a recoverable store.

    What is serialized: the capability tree (every node with its
    lineage, rights, cleanup policy, origin and activation state —
    child lists are derived from the parent pointers at restore, see
    {!node_spec} — plus the id counter and generation), every domain's
    configuration (kind, creator, entry point, measured ranges,
    seal-time measurement digest), and the per-core scheduler state
    (running domain, return stacks). Hardware state (EPT/PMP/IOMMU) is
    deliberately *not* serialized: it is re-derived from the restored
    tree by replaying attach effects, then cross-checked by the fsck
    pass — the tree is the source of truth, exactly as at runtime.

    Types are persist-neutral (ints, pairs, strings); the monitor owns
    the conversions. *)

type domain_spec = {
  d_id : int;
  d_name : string;
  d_kind : int;
  d_created_by : int; (** -1 = none (domain 0). *)
  d_sealed : bool;
  d_entry : int; (** -1 = none. *)
  d_measured : (int * int) list; (** (base, len), declaration order. *)
  d_flush : bool;
  d_measurement : string; (** Raw 32-byte digest, [""] = unsealed. *)
}

type resource_spec =
  | Mem of { base : int; len : int }
  | Core of int
  | Dev of int

type node_spec = {
  n_id : int;
  n_resource : resource_spec;
  n_rights : int; (** The rights byte ([Cap.Rights.to_bits]). *)
  n_owner : int;
  n_cleanup : int;
  n_parent : int; (** -1 = root. *)
  n_origin : int; (** 0 root, 1 shared, 2 granted, 3 split. *)
  n_state : int; (** 0 active, 1 inactive-granted, 2 inactive-split. *)
  n_children : int list;
      (** NOT serialized — decoders return [[]]. The lists are fully
          determined by the parent pointers (ids ascend with creation,
          live lists are most-recent-first), and writing them would
          make any hub node's segment O(children) on every checkpoint.
          The restore path reconstructs them before use. *)
}

type t = {
  seq : int; (** Committed-operation index this snapshot captures. *)
  next_domain : int;
  next_cap : int;
  generation : int;
  domains : domain_spec list;
  nodes : node_spec list;
  current : int list; (** Per-core running domain. *)
  stacks : int list list; (** Per-core return stacks, innermost first. *)
}

val encode : t -> string

val decode : string -> t
(** @raise Wire.Corrupt on malformed input. *)

val write : Store.t -> t -> unit
(** Append a full (version-1) snapshot to the snapshot stream and make
    it durable. May raise {!Store.Crash} at the [snapshot.write] fault
    point. *)

(** {1 Incremental checkpoints}

    An incremental checkpoint writes only the captree buckets dirtied
    since the previous one. Each dirty bucket is serialized as a
    *segment* — payload [raw sha256 ^ encoded node list] — appended to
    {!Store.seg_blob} and addressed by its hash, so a bucket whose
    contents did not change (or changed back) dedups across
    checkpoints. A version-2 *manifest* record in the snapshot stream
    then lists, in bucket order, the (bucket, hash) pairs that together
    reconstruct the tree, alongside the small inline state (domains,
    scheduler, counters). The manifest append is the atomic commit
    point; the WAL prefix it covers is compacted afterwards, and
    {!gc_segments} drops segment blobs the newest manifest no longer
    references. *)

type manifest = {
  m_seq : int;
  m_next_domain : int;
  m_next_cap : int;
  m_generation : int;
  m_domains : domain_spec list;
  m_current : int list;
  m_stacks : int list list;
  m_span : int; (** Bucket width: segment [b] holds ids in [b*span, (b+1)*span). *)
  m_segments : (int * string) list; (** (bucket, raw segment hash), bucket order. *)
}

val encode_manifest : manifest -> string
(** The manifest record body (version byte included) — exposed so
    callers can account the bytes a checkpoint writes. *)

val seg_encode : node_spec list -> string * string
(** [(raw hash, segment payload)] for one bucket's nodes. *)

val seg_decode : string -> (string * node_spec list) option
(** Validate a segment payload against its embedded hash. [None] on any
    mismatch or malformed body — never raises. *)

val append_segment : Store.t -> bucket:int -> string -> unit
(** Append one segment payload to {!Store.seg_blob} (durable only after
    {!fsync_segments}). May raise {!Store.Crash} at [segment.write]. *)

val fsync_segments : Store.t -> unit

val segment_index : Store.t -> (string, node_spec list) Hashtbl.t
(** Hash → nodes for every valid segment durable in {!Store.seg_blob}.
    Invalid records are skipped; first occurrence of a hash wins. *)

val write_manifest : Store.t -> manifest -> unit
(** Append the manifest to the snapshot stream and make it durable —
    the commit point of an incremental checkpoint. May raise
    {!Store.Crash} at the [manifest.swap] fault point, which leaves a
    deterministic torn prefix of the record for recovery to skip. *)

val gc_segments : Store.t -> live:(string -> bool) -> int * int
(** Rewrite {!Store.seg_blob} keeping one copy of every segment whose
    hash satisfies [live]; returns [(kept, dropped)] record counts. The
    rewrite is a single atomic {!Store.replace}. *)

type loaded = {
  snapshot : t option;
  scanned : int;
  torn : bool;
  manifest_segments : (int * string) list;
}

val load_latest_ex : Store.t -> loaded
(** The newest decodable snapshot, how many snapshot records were
    scanned, whether tail corruption was seen, and the winning
    manifest's segment list (empty when the newest valid record is a
    full snapshot or nothing loaded) — the monitor seeds its dedup
    cache from it. Never raises: an undecodable entry is skipped in
    favor of the next-older valid one. Understands both full snapshots
    and incremental manifests (materialized through {!Store.seg_blob}
    segments — a manifest whose segments are missing is skipped like
    any other corrupt record). *)
