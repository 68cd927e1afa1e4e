(** Fault-tolerant cross-machine capability delegation.

    A {!t} wraps one machine's monitor and connects it to peers over the
    adversarial {!Network}. Delegating a capability to a peer shares it
    locally to a [Domain.Remote] proxy domain ([remote:<peer>]) — so the
    remote holder is visible in refcounts, holders lists and attestation
    bodies like any local domain — and ships a [Delegate] message to the
    peer, which records the import durably before acking.

    {2 Delivery contract}

    Messages carry per-channel sequence numbers and an HMAC under the
    session key, and are retried with capped exponential backoff (over
    logical {!tick}s) until the peer's {e cumulative} ack covers them:
    at-least-once delivery. The receiver applies only the next expected
    sequence number; duplicates are re-acked without re-applying and
    out-of-order arrivals are dropped (retransmission restores order),
    so replay by the adversary or by a recovering sender is idempotent.
    The outbox is journaled in the ["fleet"] blob of the monitor's
    durable store, and both sides make their journal record durable
    {e before} acking or first-sending — a crash-restart on either end
    loses no delegation and no revocation. Journal records name a peer
    by its proxy domain id and carry the channel's cumulative ack floor;
    a received ack writes no record of its own, so after a crash the
    recovered floor can lag the last ack received, which costs only
    retransmissions the peer absorbs as duplicates. An ack for a
    message never sent is refused.

    {2 Degraded mode}

    A peer that stops acking sends the channel to {!Degraded} after a
    few retry rounds. Local operations proceed; the delegated caps stay
    {e frozen} in the exporter's captree (any local revoke of them or
    their ancestors is refused with [Frozen] — the remote holder cannot
    be silently destroyed, so nothing leaks), and {!revoke} keeps the
    revocation pending until the partition heals and the peer acks, at
    which point the local cascading revoke executes and the freeze
    lifts. Convergence, not availability, is the promise. *)

type peer_state =
  | Healthy
  | Degraded of { since : int; attempts : int }
      (** No ack progress for [attempts] retry rounds, since logical
          time [since]. *)

type error =
  | Monitor_error of Tyche.Monitor.error
  | Unknown_peer of Network.endpoint (** No {!connect} was issued for the peer. *)
  | No_session of Network.endpoint
      (** The peer is known but has no session key (keys are volatile;
          re-issue {!connect} after recovery). *)
  | Revocation_pending of Cap.Captree.cap_id
      (** The capability overlaps an in-flight cross-machine
          revocation. *)
  | Not_memory of Cap.Captree.cap_id
      (** Only memory capabilities can cross machines. *)

val error_to_string : error -> string

type t

val create :
  ?store:Persist.Store.t ->
  monitor:Tyche.Monitor.t ->
  name:Network.endpoint ->
  net:Network.t ->
  unit ->
  t
(** Create the fleet endpoint for [monitor], speaking as [name] on
    [net]. When [store] is given, the fleet journals into its ["fleet"]
    blob, which a {!Persist.Group} writes, and — creation {e is}
    recovery — replays the journal's durable records, whatever seq
    they are numbered from:
    channels, delegations, imports and pending revocations are rebuilt,
    revocations the durable ack floor covers are confirmed, pending
    revocations whose frozen cap is gone from the recovered tree (their
    local cascade ran before the crash) are completed, remote-held caps
    are re-frozen, the unacked outbox is reconstructed
    for retransmission, and half-finished delegations (shared to a proxy
    but never journaled, hence never sent) are reconciled by local
    revocation. The client's records are kept for {!attach_client}.
    Session keys are volatile: re-issue {!connect} for every peer after
    recovery. A torn journal tail is cut once replay succeeds; raises
    {!Corrupt_journal}, cutting nothing, on a record that passed its
    CRC but does not decode. *)

exception Corrupt_journal of { seq : int; reason : string }
(** Raised by {!create} when the journal holds a record that passed its
    CRC but does not decode: a tag this code does not know, a malformed
    body, or a channel named by a proxy id that no earlier record bound
    to a peer. [seq] is the record's journal sequence number. Recovery
    stops there rather than skip it, since a skipped delegation record
    would make reconciliation revoke a capability the peer still
    imports. Fleet journals written before records named their peer by
    proxy id and carried ack floors are refused this way. *)

val connect : t -> peer:Network.endpoint -> key:string -> (Tyche.Domain.id, error) result
(** Introduce (or re-key) a peer. The first call creates the
    [remote:<peer>] proxy domain and journals it; later calls only
    install the fresh session [key] (e.g. from
    {!Session.establish_over}) and return the existing proxy. *)

val proxy : t -> peer:Network.endpoint -> Tyche.Domain.id option
(** The proxy domain standing in for [peer], if connected. *)

val delegate :
  t ->
  caller:Tyche.Domain.id ->
  cap:Cap.Captree.cap_id ->
  peer:Network.endpoint ->
  ?subrange:Hw.Addr.Range.t ->
  rights:Cap.Rights.t ->
  unit ->
  (int, error) result
(** Delegate [cap] (or [subrange] of it) to [peer] with [rights],
    returning the delegation id. Locally this is a
    [Monitor.share] to the peer's proxy domain with [can_share] and
    [can_grant] stripped; the resulting proxy cap is immediately frozen,
    so only {!revoke} can retire it. The [Delegate] message is journaled
    and fsynced before it is first transmitted. *)

val send_data :
  t -> peer:Network.endpoint -> chan:string -> string -> (int, error) result
(** Ship an opaque application frame to [peer] on logical channel
    [chan], returning its sequence number. Same delivery contract as
    delegations: journaled (and fsynced) before first transmission,
    retried with capped exponential backoff until the peer's cumulative
    ack covers it — at-least-once across crash-restarts. The live
    migration protocol rides this. *)

val set_data_handler :
  t -> chan:string -> (Network.endpoint -> string -> unit) -> unit
(** Register the inbound dispatch for [chan] ([handler origin payload]).
    Called in strict sequence order per origin, {e before} the fleet
    journals the applied floor and acks. A handler journals its effects
    with {!append} and takes no barrier of its own: the applied floor's
    barrier, or that of a frame the handler sends, makes them durable
    before the ack leaves. It must absorb at-least-once redelivery
    idempotently (a crash between the handler and the ack makes the
    sender retransmit). Handlers are volatile, like session keys:
    re-register after recovery before polling; frames arriving for an
    unregistered channel are left unacked for the sender to retry. *)

(** {2 The shared journal}

    One client protocol (live migration) journals in the fleet's blob
    instead of keeping a journal of its own: its records ride the
    fleet's queue, barriers and compaction. *)

val attach_client : t -> live:(unit -> string list) -> count:(unit -> int) -> string list
(** Claim the client records that recovery replayed, in journal order,
    and register [live]: from now on compaction writes the records
    [live ()] returns in their place, and {!tick} weighs [count ()],
    their number, without encoding them. Until then compaction carries
    the replayed ones unchanged. *)

val append : t -> string -> unit
(** Append one client record. Durable at the next {!barrier}. *)

val barrier : t -> unit
(** Flush the monitor's pending writes, then the journal's queued
    records as one frame: every record appended so far is durable, and
    never ahead of the monitor state it names, since only this flush
    and {!compact} write the journal. A no-op without a store. *)

val crash_at : t -> Fault.point -> unit
(** If [point] fires, fail this endpoint's power: every unsynced write
    of its store is lost, and [Persist.Store.Crash] is raised. *)

val revoke : t -> caller:Tyche.Domain.id -> cap:Cap.Captree.cap_id -> (unit, error) result
(** Cascading revocation that crosses machines. If nothing below [cap]
    is delegated, this is exactly [Monitor.revoke]. Otherwise
    authorization is checked {e first} ([Monitor.may_revoke]: the caller
    must own [cap] or an ancestor — refused with [Monitor_error (Denied
    _)] before anything is frozen, journaled or sent, because peers drop
    their imports on receipt of the Revoke). Then [cap] is frozen, a
    [Revoke] is journaled and sent for every delegation in the subtree,
    and the local cascade runs only once every affected peer's
    cumulative ack confirms it dropped its import — at-least-once, so a
    partition delays but never loses the revocation. If the caller's
    authority disappears while acks are in flight (ownership moved), the
    pending revocation is aborted rather than retried forever: the
    orphaned proxy caps are retired with their delegators' authority and
    the subtree is thawed (surfaced on the [fleet.revoke_aborted]
    counter). *)

val poll : t -> int
(** Drain and handle every datagram pending for this endpoint; returns
    how many were processed (including drops and rejects). *)

val tick : t -> unit
(** Advance logical time one step: retransmit due outboxes (capped
    exponential backoff), demote silent peers to {!Degraded}, retry
    pending revocations whose acks are all in, and compact the journal
    once its records weigh at least 4 KB and four times what its live
    records weigh, a live record weighing what the last snapshot's
    records did on average (framing left out; before the first
    snapshot, the 4 KB floor alone decides). *)

val compact : t -> unit
(** Rewrite the fleet journal to a snapshot of live state (peers,
    channel counters, active delegations, imports, pending revocations,
    then the client's live records), dropping records that recovery no
    longer needs — completed delegations, retired imports, acked data
    frames. The snapshot is written once, after the monitor's pending
    writes are flushed: {!Persist.Group.install} makes it the whole
    journal, numbered from 1, with one atomic [Persist.Store.replace],
    so a crash leaves either the old journal or the snapshot. May
    raise [Persist.Store.Crash] at the [store.dir_fsync] fault point.
    A no-op without a store. {!tick} calls this automatically (see
    there). *)

(** {2 Inspection} *)

val peer_state : t -> peer:Network.endpoint -> peer_state option

type del_state = Active | Revoking | Revoked

type delegation = {
  del_id : int;
  del_peer : Network.endpoint;
  proxy_cap : Cap.Captree.cap_id; (** The frozen local cap held by the proxy. *)
  del_base : int;
  del_len : int;
  del_rights : int; (** Rights byte as shipped on the wire. *)
  del_seq : int;
  mutable del_state : del_state;
  mutable revoke_seq : int;
}

type import = {
  imp_origin : Network.endpoint;
  imp_del_id : int;
  imp_base : int;
  imp_len : int;
  imp_rights : int;
}

val delegations : t -> delegation list
(** Outbound delegations, sorted by id. *)

val imports : t -> import list
(** Inbound (remote-held) capabilities, sorted by origin then id. *)

val pending_revokes : t -> Cap.Captree.cap_id list
val backlog : t -> peer:Network.endpoint -> int
val applied : t -> peer:Network.endpoint -> int
val acked : t -> peer:Network.endpoint -> int

val idle : t -> bool
(** No unacked messages and no pending revocations — both sides have
    converged. *)

val monitor : t -> Tyche.Monitor.t
val endpoint_name : t -> Network.endpoint

(** {2 Fleet attestation}

    A fleet root binds every member's whole-machine attestation into one
    Merkle root: each member's root is the Merkle root over its
    [attest_batch] payloads (every domain, including remote proxies, so
    delegations are visible to the verifier), and the fleet tree is
    built over the member roots. *)

type attestation = {
  fa_members : (string * Crypto.Sha256.digest) list; (** (member, root), input order. *)
  fa_root : Crypto.Sha256.digest;
  fa_tree : Crypto.Merkle.t;
}

val member_root : Tyche.Monitor.t -> nonce:string -> (Crypto.Sha256.digest, error) result
(** One machine's attest root: the batch root of one attestation of all
    its domains (the Merkle root over their canonical payloads, which
    the monitor signs). Every report of that batch proves its inclusion
    under it. *)

val attest : nonce:string -> (string * Tyche.Monitor.t) list -> (attestation, error) result

val verify_member : attestation -> name:string -> member_root:Crypto.Sha256.digest -> bool
(** Check that [member_root] is the recorded root for [name] and that
    its inclusion proof verifies against the fleet root. *)

(** {2 Wire format} (exposed for property tests) *)

module Wire : sig
  type msg =
    | Delegate of { del_id : int; base : int; len : int; rights : int }
    | Revoke of { del_id : int }
    | Ack of { upto : int }
    | Data of { chan : string; payload : string }

  val encode_body : origin:string -> seq:int -> msg -> string
  val decode_body : string -> (string * int * msg, string) result
  val seal : key:string -> string -> string
  val split_datagram : string -> (string * string, string) result
  val verify : key:string -> body:string -> mac:string -> bool
end
