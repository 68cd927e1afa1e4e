(** The isolation monitor: the executive branch (§3).

    The monitor owns the capability tree, validates every operation, and
    drives the platform backend so hardware always reflects the tree. It
    is deliberately *not* a resource manager: it never chooses which
    resources a domain gets — it only validates sharing, granting and
    revocation requested by the software running in domains (§3.5).

    Every API entry point takes a [caller] domain id, modelling the
    VMCALL/ecall channel: the hardware tells the monitor which domain
    trapped in, and authorization is decided from the capability tree,
    never from privilege. *)

type t

type error =
  | Cap_error of Cap.Captree.error
  | Unknown_domain of Domain.id
  | Denied of string (** Caller lacks the authority for the operation. *)
  | Backend_refused of string (** Layout/enforcement validation failed. *)
  | Backend_failure of string
  (** A hardware effect failed mid-operation (an injected fault, PMP
      exhaustion discovered while reprogramming). The operation was
      rolled back: the capability tree and all hardware state are
      exactly as before the call. Mutating API calls never raise. *)
  | Bad_transition of string
  | Domain_config of string (** Sealing/entry-point state errors. *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

(** {2 Boot} *)

val boot :
  ?signer_height:int ->
  ?keypool:Crypto.Keypool.t ->
  Hw.Machine.t ->
  backend:Backend_intf.t ->
  tpm:Rot.Tpm.t ->
  rng:Crypto.Rng.t ->
  monitor_range:Hw.Addr.Range.t ->
  t
(** Take control of a freshly measured-booted machine: generate the
    monitor's attestation key (capacity [2^signer_height] attestations,
    default 64) and bind it into the TPM (PCR 18), create domain 0 (the
    OS) and endow it with every resource except the monitor's own
    memory, and mark every core as running domain 0. When [keypool] is
    given, the attestation signer draws its pregenerated one-time keys
    from it and keeps it eagerly replenished (see {!Crypto.Keypool}). *)

val machine : t -> Hw.Machine.t
val tree : t -> Cap.Captree.t
val backend : t -> Backend_intf.t
val attestation_root : t -> Crypto.Sha256.digest
(** The monitor's public attestation key (verifiers obtain it via the
    TPM quote binding, see {!boot_quote}). *)

val key_binding_pcr : int
(** PCR 18: extended at boot with the monitor's attestation root. *)

val canonical_effects : Cap.Captree.t -> Cap.Captree.effect list -> Cap.Captree.effect list
(** The one pass every call's effect list goes through before the
    backend sees it, given the post-mutation tree. Memory Detaches are
    grouped by domain: the union of a domain's detached ranges is cut
    along its surviving holdings (found through the captree's indexes);
    uncovered pieces detach once with the strongest clean-up among the
    removed caps over them, covered pieces detach with [Keep] and are
    re-attached at each survivor's own permission, in ascending cap id.
    Every Detach comes before any Attach; the other effects keep their
    relative order. The hardware layout this produces is the canonical
    per-(domain, perm) union of active holdings that crash recovery
    rebuilds. *)

(** {2 Domain lifecycle} *)

val create_domain :
  t -> caller:Domain.id -> name:string -> kind:Domain.kind -> (Domain.id, error) result
(** Any domain may create child domains (the separation-of-powers point:
    isolation policy is not a privileged operation). *)

val find_domain : t -> Domain.id -> Domain.t option
val domains : t -> Domain.t list

val set_entry_point :
  t -> caller:Domain.id -> domain:Domain.id -> Hw.Addr.t -> (unit, error) result
(** Creator or the domain itself, before sealing; the address must be
    non-negative. *)

val set_flush_policy :
  t -> caller:Domain.id -> domain:Domain.id -> bool -> (unit, error) result

val mark_measured :
  t -> caller:Domain.id -> domain:Domain.id -> Hw.Addr.Range.t -> (unit, error) result
(** Declare that a range counts toward the domain's measurement. The
    range must already be held by the domain. *)

val measured_exposures :
  t -> domain:Domain.id -> Hw.Addr.Range.t list -> (Hw.Addr.Range.t * Domain.id) list
(** [(range, holder)] pairs where a foreign domain can reach one of the
    given ranges even though the domain's own access to it is
    exclusive-lineage (root/grant/split all the way up) and the holder's
    access does not descend from the domain's capabilities. Empty for
    ranges the domain no longer holds, and for ranges the domain itself
    received through a foreign share (never exclusive, so the sealed
    guarantee does not attach). [seal] refuses when non-empty;
    [Invariants.check_sealed_unextended] audits the same predicate. *)

val seal : t -> caller:Domain.id -> domain:Domain.id -> (unit, error) result
(** Freeze the domain: measure its measured ranges (current memory
    content), fix the entry point, and refuse any future capability
    attachment to it. Creator or self only. Refuses while a measured
    region is exposed per {!measured_exposures} — exposure that exists
    at seal time could never be retracted afterwards. *)

val destroy_domain :
  t -> caller:Domain.id -> domain:Domain.id -> (unit, error) result
(** Revoke every capability the domain holds (running clean-up policies)
    and delete it. Creator only; domain 0 is indestructible. *)

(** {2 Live-migration freeze}

    While a domain's image is being streamed to another monitor
    ([Distributed.Migrate]), the local copy must be inert: frozen-but-
    alive on the source until the target's verified commit, and parked
    pre-commit on the target. {!freeze_domain} latches the domain
    (volatile — crash-restart clears it; the migration journal
    re-freezes on resume) and freezes every capability it holds, so
    runs, configuration, attachment, destruction and revocation of (or
    under) its holdings are all refused until {!thaw_domain}. *)

val freeze_domain : t -> domain:Domain.id -> (unit, error) result
(** Refused for domain 0 and for a domain currently running or on a
    return stack. Idempotent. *)

val thaw_domain : t -> domain:Domain.id -> (unit, error) result
(** Release the latch and thaw the domain's capabilities. Idempotent. *)

val domain_frozen : t -> domain:Domain.id -> bool

(** {2 Capability operations (the legislative interface)} *)

val caps_of : t -> Domain.id -> Cap.Captree.cap_id list

val share :
  t ->
  caller:Domain.id ->
  cap:Cap.Captree.cap_id ->
  to_:Domain.id ->
  rights:Cap.Rights.t ->
  cleanup:Cap.Revocation.t ->
  ?subrange:Hw.Addr.Range.t ->
  unit ->
  (Cap.Captree.cap_id, error) result
(** Caller must own the capability; the target must exist and — for
    memory resources — be unsealed (sealing freezes a domain's memory
    footprint; core and device delegation stays dynamic and refcount-
    visible); the backend must accept the resulting layout. *)

val grant :
  t ->
  caller:Domain.id ->
  cap:Cap.Captree.cap_id ->
  to_:Domain.id ->
  rights:Cap.Rights.t ->
  cleanup:Cap.Revocation.t ->
  (Cap.Captree.cap_id, error) result

val split :
  t -> caller:Domain.id -> cap:Cap.Captree.cap_id -> at:Hw.Addr.t ->
  (Cap.Captree.cap_id * Cap.Captree.cap_id, error) result

val carve :
  t -> caller:Domain.id -> cap:Cap.Captree.cap_id -> subrange:Hw.Addr.Range.t ->
  (Cap.Captree.cap_id, error) result

val revoke :
  t -> caller:Domain.id -> cap:Cap.Captree.cap_id -> (unit, error) result
(** Cascading revocation of the capability's whole subtree. The caller
    must own the capability or an ancestor of it; clean-up policies run
    before anything is reattached. *)

val may_revoke :
  t -> caller:Domain.id -> Cap.Captree.cap_id -> (unit, error) result
(** The authorization check {!revoke} performs, by itself: [Ok ()] iff
    [caller] owns the capability or an ancestor of it. Read-only.
    Callers that must do irreversible work {e before} the local cascade
    runs (e.g. cross-machine revocation, which tells remote holders to
    drop their imports first) use this to refuse unauthorized requests
    up front. *)

(** {2 Transitions (mediated control transfers, §3.1)} *)

val current_domain : t -> core:int -> Domain.id

val call :
  t -> core:int -> target:Domain.id -> (Backend_intf.transition_path, error) result
(** Transfer control of [core] from its current domain to [target]'s
    entry point. Requires: target sealed, target holds a capability for
    the core. The caller is pushed on the core's return stack. If either
    side requests micro-architectural flushing, the slow path is forced
    and caches are flushed. *)

val ret : t -> core:int -> (Backend_intf.transition_path, error) result
(** Return to the domain that performed the matching {!call}. Stack
    entries that no longer hold a capability for the core (revoked while
    suspended) are skipped — a revoked domain cannot be resumed through
    a stale return path. *)

val call_depth : t -> core:int -> int

(** {2 Scheduling guarantees and interrupt routing (§4.1 extensions)}

    The paper explores extending capabilities "to provide scheduling
    guarantees, cross-domain interrupt routing, and expose denial of
    service attacks". Here: core capabilities double as scheduling
    rights (the timer evicts squatters that no longer hold the core),
    and interrupt routes are only programmable by a domain holding both
    the device and the target core. *)

val timer_tick : t -> core:int -> (Domain.id, error) result
(** The per-core timer interrupt, handled by the monitor. If the
    domain currently running on [core] still holds a capability for it,
    nothing changes. If not — its core capability was revoked or granted
    away — the monitor evicts it: the return stack is cleared and
    control transfers to the domain holding the core exclusively (or to
    domain 0 if holders are ambiguous and it holds the core). Returns
    the domain now running. This is what turns an exclusively-held core
    capability into a *guarantee* rather than a convention. *)

val route_interrupt :
  t ->
  caller:Domain.id ->
  device:int ->
  vector:int ->
  core:int ->
  (unit, error) result
(** Program the interrupt-remapping fabric so [device] may raise
    [vector], steered to [core]. The caller must hold active
    capabilities for both the device and the core — interrupt routing is
    a resource delegation like any other, not a privileged operation.
    A device detach tears down every route of the device, even when
    another holder keeps it ({!Hw_txn} calls {!Hw.Interrupt.revoke_device});
    its DMA windows, by contrast, keep what the remaining holders hold. *)

(** {2 Domain-context memory access}

    These model instructions executed by the current domain on a core;
    the hardware (EPT or PMP) checks them, which is how tests observe
    enforcement rather than trusting the bookkeeping. *)

val get_reg : t -> core:int -> int -> (int, error) result
val set_reg : t -> core:int -> int -> int -> (unit, error) result
(** General-purpose registers of the domain currently on the core. The
    monitor context-switches the register file on every transition and
    zeroes it on a domain's first entry, so register contents never leak
    across domains (tested in the E12 suite). *)

val load : t -> core:int -> Hw.Addr.t -> (int, error) result
val store : t -> core:int -> Hw.Addr.t -> int -> (unit, error) result
val load_string : t -> core:int -> Hw.Addr.Range.t -> (string, error) result
val store_string : t -> core:int -> Hw.Addr.t -> string -> (unit, error) result

(** {2 Attestation (the judiciary interface, §3.4)} *)

val attest :
  t -> caller:Domain.id -> domain:Domain.id -> nonce:string ->
  (Attestation.t, error) result
(** Produce the signed tier-two report for a domain: {!attest_batch} of
    one. Any domain (and the remote verifier, through one) may request
    it. The capability enumeration (regions, refcounts, holders) is
    memoized against the tree's {!Cap.Captree.generation}, so repeated
    attestations of a quiescent tree skip re-enumeration; the signature
    itself is always fresh (one-time key, caller nonce). Once the
    signer's keys are spent, every attest entry point returns [Denied];
    none raises. *)

val attest_batch :
  t -> caller:Domain.id -> domains:Domain.id list -> nonce:string ->
  (Attestation.t list, error) result
(** Attest many domains at once: enumerate each body (memoized, as in
    {!attest}), build a Merkle tree over the canonical payloads, sign
    only the root, and return per-domain reports (in input order)
    carrying inclusion proofs — one one-time key for the whole batch
    instead of one per domain. [Ok []] for an empty list. Fails with
    [Unknown_domain] if any requested domain does not exist (no key is
    consumed in that case). *)

val boot_quote : t -> nonce:string -> Rot.Tpm.Quote.t
(** Tier one: TPM quote over PCRs 0, 4, 17 and {!key_binding_pcr},
    proving which monitor booted and which attestation key it holds. *)

val transition_count : t -> int
(** Total mediated transitions since boot (statistics). *)

(** {2 The call interface} *)

val exec : t -> caller:Domain.id -> core:int -> Op.call -> (Op.result_value, error) result
(** Run one call as [caller], trapping on [core], through the entry
    point it names — the only mapping from {!Op.call} onto this module.
    {!Api.dispatch} wraps it in a span; WAL replay calls it directly.
    [Call] and [Return] require [caller] to be current on [core]. Total:
    no exception escapes. *)

(** {2 Durability (crash-restart recovery)}

    A logical redo layer: every committed mutating API call appends a
    CRC-framed record to a {!Persist.Store} WAL through a group-commit
    queue ({!Persist.Group}), and periodic checkpoints bound the replay
    distance. Checkpoints are incremental ({!Checkpoint}): only captree
    buckets dirtied since the previous checkpoint are re-serialized, as
    content-addressed segments a manifest names; the WAL prefix the
    manifest covers is compacted away and unreferenced segments are
    collected. {!recover} rebuilds a monitor from the newest valid
    checkpoint plus the trusted WAL suffix — a torn tail (power loss
    mid-write) is detected by the framing and discarded, never
    trusted. Run {!Fsck.check} on the result before serving. *)

val enable_persistence :
  t ->
  store:Persist.Store.t ->
  ?snapshot_every:int ->
  ?fsync_every:int ->
  unit ->
  unit
(** Arm the redo log (call right after {!boot} — the WAL's implicit
    starting state is the boot baseline, captured immediately as the
    seq-0 checkpoint). [snapshot_every] (default 1000) checkpoints and
    retires the WAL every N committed operations. [fsync_every]
    (default 1) is the group-commit batch size: one fsync acknowledges
    up to N committed records. A crash loses at most the
    unacknowledged tail of one batch — {!durable_seq} is the floor
    recovery honors, and the framing guarantees the survivors are a
    consistent prefix. May raise {!Persist.Store.Crash} under fault
    injection. *)

val persist_seq : t -> int option
(** Committed-operation index, [None] until persistence is enabled. *)

val durable_seq : t -> int option
(** Acknowledgement floor: the highest committed-operation index known
    durable (group-commit batch fsynced or checkpoint written). Ops at
    or below this seq survive any crash; ops above it may be lost but
    never torn. [None] until persistence is enabled. *)

val flush : t -> unit
(** Make every pending group-commit record durable now — for
    latency-sensitive callers and clean shutdown. After [flush],
    [durable_seq = persist_seq]. No-op when persistence is off. May
    raise {!Persist.Store.Crash} under fault injection. *)

val checkpoint : t -> unit
(** Checkpoint now: serialize dirty captree buckets as
    content-addressed segments, commit a manifest, compact the covered
    WAL prefix, collect unreferenced segments. Raises
    [Invalid_argument] if persistence is off. May raise
    {!Persist.Store.Crash} at the [segment.write], [manifest.swap],
    [snapshot.write] or [store.dir_fsync] fault points — every crash
    window leaves a recoverable store. *)

type recovery_report = {
  rr_snapshot_seq : int; (** Seq of the checkpoint used; -1 = none found. *)
  rr_snapshots_scanned : int; (** Manifest records in the checkpoint stream. *)
  rr_snapshot_torn : bool; (** The checkpoint stream had an undecodable record or tail. *)
  rr_wal_records : int; (** Records in the trusted WAL prefix. *)
  rr_replayed : int; (** Records actually re-executed. *)
  rr_wal_truncated : bool; (** A torn/corrupt WAL tail was discarded. *)
  rr_stopped_early : string option; (** Why replay stopped, if not at the end. *)
  rr_seq : int; (** Committed-operation index after recovery. *)
}

val pp_recovery_report : Format.formatter -> recovery_report -> unit

val recover :
  ?signer_height:int ->
  ?keypool:Crypto.Keypool.t ->
  ?snapshot_every:int ->
  ?fsync_every:int ->
  Hw.Machine.t ->
  store:Persist.Store.t ->
  backend:Backend_intf.t ->
  tpm:Rot.Tpm.t ->
  rng:Crypto.Rng.t ->
  monitor_range:Hw.Addr.Range.t ->
  (t * recovery_report, string) result
(** Crash-restart: rebuild a monitor on a fresh machine/backend from the
    store's durable bytes. Loads the newest decodable checkpoint (or the
    boot baseline if none), re-derives hardware state from the restored
    tree, replays the WAL suffix (stopping, never failing, at the first
    record that cannot be trusted), re-arms persistence and writes a
    fresh checkpoint. The new monitor has a fresh attestation signer —
    one-time signing keys are deliberately not durable — so verifiers
    re-fetch the root via {!boot_quote}; attestation *bodies* are
    byte-identical to the pre-crash tree's. [Error] means the store and
    machine disagree structurally (wrong core count, a re-attach the
    backend refuses), not a torn log or an undecodable checkpoint. *)

(** {2 Multi-monitor coordination}

    Hooks the sharded front end ({!Sharded}) builds on: an explicit
    transaction bracket for two-phase commit across several monitors,
    body-only attestation for cross-shard aggregation, and verbatim
    digest installation for seals measured elsewhere. *)

val txn_begin : t -> unit
(** Open the captree journal and the backend undo log. While the
    bracket is open, every mutating API call on this monitor enlists in
    it — the call runs its body but performs no commit, no rollback and
    no WAL append; the bracket owner decides all three. Brackets do not
    nest. *)

val txn_commit : t -> unit
(** Close the bracket keeping every mutation made inside it. In-memory
    and infallible — the commit decision is the caller's alone. *)

val txn_rollback : t -> unit
(** Close the bracket undoing every mutation made inside it (captree
    journal and backend undo log), exactly like a failed call. *)

val attest_body_of :
  t ->
  domain:Domain.id ->
  (Attestation.region_report list * (int * int) list * (int * int) list, error) result
(** The memoized attestation body — [(regions, (core, refcount) list,
    (device, refcount) list)] — without signing it. Same cache as
    {!attest}. *)

val install_seal :
  t -> caller:Domain.id -> domain:Domain.id -> measurement:string -> (unit, string) result
(** Install a seal digest verbatim (creator-or-self and digest-length
    checks, no re-measurement) — for WAL replay of a logged [Seal], and
    for coordinators that measured the domain's ranges on other
    monitors. *)

val adopt_seal :
  t ->
  caller:Domain.id ->
  domain:Domain.id ->
  measurement:Crypto.Sha256.digest ->
  (unit, error) result
(** {!install_seal}, but logged as a first-class [Seal] operation so the
    adopting monitor's own WAL replays it — used when a migrated-in
    domain is reassembled from verbatim-copied bytes under the
    measurement its transfer receipt binds. *)

val destroy_guard :
  t -> caller:Domain.id -> domain:Domain.id -> (Domain.t, error) result
(** The {!destroy_domain} admission checks alone (exists, not domain 0,
    creator only, not running), read-only. *)

val revoke_all_of : t -> domain:Domain.id -> (unit, error) result
(** Revoke every capability the domain holds or delegated (the
    destruction cascade). Journaled tree/hardware work only — run it
    inside a transaction bracket; on [Error] the bracket's rollback
    restores everything. *)

val forget_domain : t -> Domain.t -> unit
(** Drop a destroyed domain's table entries and notify the backend.
    Infallible but NOT journaled: a coordinator must call it only after
    its commit decision is final. *)

(** {2 Telemetry} *)

type attest_telemetry = {
  attests : int; (** Root signatures made; an empty batch makes none. *)
  body_cache_hits : int; (** Memoized bodies reused. *)
  body_cache_misses : int; (** Bodies re-enumerated. *)
  keypool_hits : int; (** Signer keys served from the pregenerated pool. *)
  keypool_misses : int; (** Keys generated on demand (pool empty or faulted). *)
  keypool_miss_rate : float; (** [misses / (hits + misses)]; 0. with no pool. *)
  keypool_stock : int; (** Pairs currently pooled. *)
}

val attest_telemetry : t -> attest_telemetry
(** Attestation-pipeline health, including the key pool's miss rate —
    how operators observe graceful degradation (a starved pool slows
    signing but never fails it). All zeros for the pool fields when the
    monitor was booted without one. *)

val observe : t -> Obs.report
(** The structured observability report: per-op counts and latency
    percentiles (from {!Obs.Profile} spans around every API dispatch,
    hardware write, WAL append/fsync and keypool operation), per-domain
    op counts, revocation-cascade depth/size histograms, and journal
    commit/rollback counters. The underlying registry is process-global
    (see {!Obs}); {!boot} and {!recover} point its clock at this
    monitor's cycle counter. *)
