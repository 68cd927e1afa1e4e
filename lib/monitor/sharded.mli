(** A federation of per-shard monitors behind one global namespace.

    Each shard is a complete world — its own machine, backend, TPM and
    {!Monitor.t} — pinned to (at most) one OCaml Domain's worth of
    mutation at a time by a per-shard lock. Isolation domains are
    replicated across every shard; resources and capability subtrees
    live on exactly one. Global ids are stateless encodings of
    [(shard, local)]: capability [local lsl 6 lor shard], address
    [shard * 2^40 + local], core [shard * cores_per_shard + local] —
    shard-count invariant for workloads confined to shard 0.

    Every call goes through {!dispatch}. Readers of the indexed queries
    ({!refcount}, {!holders}, {!caps_of}) run an optimistic seqlock
    protocol and never block writers. Durability is a single front-end
    redo log in global ids, appended post-commit (the WAL contract of
    {!Monitor} unchanged). *)

type t

val addr_stride : int

(** {2 Id translation} *)

val gcap : shard:int -> Cap.Captree.cap_id -> Cap.Captree.cap_id
val cap_shard : Cap.Captree.cap_id -> int
val cap_local : Cap.Captree.cap_id -> Cap.Captree.cap_id
val grange : shard:int -> Hw.Addr.Range.t -> Hw.Addr.Range.t

(** {2 Boot} *)

val boot :
  shards:int ->
  ?signer_height:int ->
  ?keypool:Crypto.Keypool.t ->
  rng:Crypto.Rng.t ->
  mk:
    (shard:int ->
    Hw.Machine.t * Backend_intf.t * Rot.Tpm.t * Crypto.Rng.t * Hw.Addr.Range.t) ->
  unit ->
  t
(** Boot [shards] worlds (1 to 64); [mk ~shard:i] supplies shard [i]'s
    machine, backend, TPM, rng and monitor range. Every shard must have
    the same core count, and shard memory must fit the address stride.
    [rng] feeds the federation's aggregate-attestation signer, whose
    root shard 0's TPM binds into PCR {!Monitor.key_binding_pcr} after
    shard 0's own monitor root (see {!boot_quote}). *)

val shard_count : t -> int
val cores : t -> int
val cores_per_shard : t -> int
val shard_monitor : t -> int -> Monitor.t

(** {2 Calls} *)

val dispatch : t -> caller:Domain.id -> core:int -> Api.call -> Api.response
(** {!Api.dispatch} over global ids: a router onto {!Monitor.exec}.
    - [Share], [Grant], [Split], [Carve] and [Revoke] run on the shard
      that owns the capability, [Call] and [Return] on the core's
      shard, with operands translated to local ids (a subrange or split
      point outside the shard's address window is [Bad_subrange]).
    - [Create_domain], [Set_entry_point] and [Set_flush_policy] run on
      every shard, which must all return shard 0's value.
    - [Mark_measured], [Seal], [Enumerate] and [Attest] use front-end
      state: global measured ranges, and one aggregate attestation
      signed by the federation signer.
    - [Destroy] is a two-phase commit across every shard. Fault points:
      ["shard.prepare"] fires after every journal is prepared but
      before the commit decision (global rollback, error returned);
      ["shard.commit"] fires per shard after the decision and is
      absorbed — post-decision commits are infallible in-memory work.

    A successful mutating call is logged once, before its locks are
    released. Errors come back as values; only a simulated power
    failure ({!Persist.Store.Crash}) escapes. *)

val timer_tick : t -> core:int -> (Domain.id, Monitor.error) result
(** The timer interrupt on global [core]: evicts a domain that no longer
    holds the core (see {!Monitor.timer_tick}). A hardware event, not a
    call. *)

(** {2 Lock-free queries} *)

val find_domain : t -> Domain.id -> Domain.t option
val caps_of : t -> Domain.id -> Cap.Captree.cap_id list
val refcount : t -> Cap.Resource.t -> int
val holders : t -> Cap.Resource.t -> Domain.id list

(** {2 Attestation} *)

val attestation_root : t -> Crypto.Sha256.digest
(** The federation signer's root, under which [Attest] responses verify. *)

val boot_quote : t -> nonce:string -> Rot.Tpm.Quote.t
(** Shard 0's quote. Its PCR 18 binds shard 0's monitor root and then
    {!attestation_root}: check it with
    [Verifier.Chain.verify_boot_chain ~bound:[shard-0 root; federation root]]. *)

(** {2 Durability} *)

val enable_persistence :
  t -> store:Persist.Store.t -> ?fsync_every:int -> unit -> unit
(** Arm the front-end redo log: every committed call appends a record
    through a {!Persist.Group} at [fsync_every] records a batch
    (default 1; [Invalid_argument] unless positive). The front end
    keeps no checkpoints, so the WAL is the whole history. *)

val flush : t -> unit
(** Make every pending record durable. Safe from any Domain: appends
    and flushes share one lock. *)

val persist_seq : t -> int option
val durable_seq : t -> int option

type recovery_report = {
  sr_wal_records : int; (** Records in the trusted WAL prefix. *)
  sr_replayed : int; (** Records re-executed. *)
  sr_wal_truncated : bool; (** Bytes past the replayed records were cut from the WAL. *)
  sr_stopped_early : string option; (** Why replay stopped, if not at the end. *)
}

val recover :
  shards:int ->
  ?signer_height:int ->
  ?keypool:Crypto.Keypool.t ->
  ?fsync_every:int ->
  rng:Crypto.Rng.t ->
  mk:
    (shard:int ->
    Hw.Machine.t * Backend_intf.t * Rot.Tpm.t * Crypto.Rng.t * Hw.Addr.Range.t) ->
  store:Persist.Store.t ->
  unit ->
  t * recovery_report
(** Crash-restart: boot a fresh federation with [mk] and replay the
    front-end WAL through {!dispatch} (a [Seal] record installs its
    recorded digest on every shard) with {!Persist.Group.recover}, as
    {!Monitor.recover} does: it stops at the first record that cannot
    be trusted and cuts the log behind the records applied, so
    operations acknowledged after recovery survive the next crash with
    no sequence gap. New operations log with group commit at
    [fsync_every], as after {!enable_persistence}. *)
