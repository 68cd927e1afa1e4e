(** Live domain migration: crash-resumable cross-machine domain
    transfer with re-homed delegations.

    A {!t} attaches to one machine's {!Fleet} endpoint and speaks the
    migration protocol on the fleet data channel ["migrate"], inheriting
    the fleet's delivery contract (per-channel sequencing, HMAC, durable
    outbox, cumulative acks, capped-exponential retry) instead of
    rebuilding it. A migration ships a {e sealed, quiescent} domain as
    content-addressed page chunks — the target answers an [Offer] with
    the hashes it does {e not} already hold, so a resumed transfer
    sends only missing bytes — followed by a [Final] manifest
    binding the domain's configuration, capability layout, measurement
    and page hashes to the source's pre-migration batch-attestation
    Merkle root.

    {2 State machine}

    Source: [Offered → Streaming → Committing → Committed/Aborted].
    Target: [Receiving → Parked (adopted, frozen) → Live/Aborted].

    The source freezes the domain ({!Tyche.Monitor.freeze_domain}) for
    the whole transfer: frozen-but-alive until the target's
    fsck-verified [Receipt], thawed unchanged on abort. On commit the
    source re-homes the domain's outbound fleet delegations (each is
    revoked through the at-least-once cross-machine protocol, so
    refcounts, holders and attestation stay coherent fleet-wide),
    destroys the local copy, replaces it with a [Domain.Remote] proxy
    named [remote:<peer>:<name>], and sends [Commit]; the target thaws
    its adopted copy and re-delegates from the manifest's delegation
    list. Core and device capabilities are machine-local and do not
    migrate.

    {2 Crash recovery}

    A machine keeps one journal: migration records ride its {!Fleet}
    journal — one whole-state record per migration and role (the
    newest wins), a target's manifest, and chunks. A record is durable
    before the message it makes meaningful leaves the machine: a frame
    handler's records ride the barrier of the frame it sends or of the
    fleet's applied floor, and an intent that must precede a monitor
    action (adopting, committing, aborting) takes its own. {!attach}
    {e is} recovery: it re-freezes in-flight domains (the freeze latch
    is volatile), rebuilds the chunk store, and resumes — a source
    re-offers (the target's durable chunks dedup the re-send) or
    re-runs its commit, and a terminal source re-sends its [Commit] or
    [Abort]; a target re-runs adoption from the durable manifest,
    re-imports adopted-but-not-yet-live page bytes, re-sends its
    receipt, or finishes an aborted adoption's clean-up. Exactly one
    monitor hosts the domain live once the protocol drains.

    Memory, and so the fleet's compaction, keeps every migration not
    yet terminal, every terminal one that still owes its peer a
    [Commit], an [Abort] or re-delegations, the four newest other
    outcomes (so {!status} and {!verify_receipt} still answer for
    them), the id counter, and only the chunks a receiving or parked
    target names. Stores holding a ["migrate"] blob of an earlier
    release are not read. *)

type error =
  | Fleet_error of Fleet.error
  | Monitor_error of Tyche.Monitor.error
  | Refused of string
      (** Admission failed: unsealed domain, non-exclusive holders,
          pending revocation overlap, name collision, … *)
  | Unknown_migration of string

val error_to_string : error -> string

(** {2 Wire format} (exposed for property tests) *)

module Wire : sig
  (** The frozen-domain manifest shipped in [Final]. Digests and hashes
      are raw 32-byte SHA-256 strings. *)
  type manifest = {
    mf_name : string;
    mf_kind : int; (** {!Tyche.Domain.kind} as a wire byte. *)
    mf_entry : int; (** Entry point; [-1] = none. *)
    mf_flush : bool;
    mf_measurement : string; (** Seal-time measurement, raw 32 bytes. *)
    mf_caps : (int * int * int * int) list;
        (** (base, len, rights bits, cleanup byte) per memory cap. *)
    mf_measured : (int * int) list; (** (base, len), declaration order. *)
    mf_pages : (int * int * string) list; (** (base, len, content hash). *)
    mf_dels : (string * int * int * int) list;
        (** Outbound delegations to re-home: (peer, base, len, rights). *)
    mf_att : string; (** {!Tyche.Attestation.to_wire} of the domain. *)
    mf_root : string; (** Source pre-migration batch-attest Merkle root. *)
    mf_state : string; (** Portable configuration digest. *)
    mf_image : string; (** Portable state+content digest. *)
  }

  type frame =
    | Offer of { mig : string; hashes : string list }
    | Need of { mig : string; hashes : string list }
    | Chunk of { mig : string; hash : string; bytes : string }
    | Chunk_ack of { mig : string; hash : string }
    | Final of { mig : string; manifest : manifest }
    | Receipt of { mig : string; image : string }
    | Commit of { mig : string }
    | Abort of { mig : string; reason : string }

  val encode_manifest : manifest -> string
  val decode_manifest : string -> (manifest, string) result
  val encode_frame : frame -> string
  val decode_frame : string -> (frame, string) result
end

type t

val attach : fleet:Fleet.t -> t
(** Attach the migration engine to [fleet], journaling in the fleet's
    journal, streaming at most 4 unacked chunks at a time. Registers
    the ["migrate"] data handler and claims the fleet's replayed client
    records — attachment {e is} recovery, see above. Attach after every
    {!Fleet.create} (handlers are volatile), before polling. *)

val set_peer_root : t -> peer:Network.endpoint -> Crypto.Sha256.digest -> unit
(** Install [peer]'s monitor attestation root (obtained out of band,
    e.g. from its boot quote during {!Session} establishment). Volatile,
    like session keys. When present, an inbound manifest's root
    signature is verified against it; the Merkle-inclusion check of the
    domain's attestation in the batch root runs regardless. *)

val start :
  t -> domain:Tyche.Domain.id -> peer:Network.endpoint -> (string, error) result
(** Begin migrating [domain] to [peer]; returns the migration id.
    Admission: the domain is sealed, not domain 0, not a proxy, not
    already migrating; every memory capability it holds is exclusive up
    to fleet delegations (no local co-holders); nothing it holds
    overlaps a pending cross-machine revocation. On success the domain
    is frozen and the transfer proceeds as {!Fleet.tick}/{!Fleet.poll}
    and {!tick} are pumped. *)

val abort : t -> mig:string -> reason:string -> (unit, error) result
(** Abort an in-flight migration from either endpoint: the source thaws
    the frozen domain (no observable mutation — delegations re-homed by
    an already-{!phase}-[Committing] migration are not restored); the
    target destroys any partially adopted copy. The peer is notified
    best-effort and also aborts. *)

val tick : t -> unit
(** Drive retries and resumed work: re-offer after recovery or session
    loss, re-run adoption, re-send receipts, advance commits waiting on
    delegation re-homing, flush deferred frames. Pump alongside
    {!Fleet.tick}/{!Fleet.poll}. *)

(** {2 Inspection} *)

type role = Source | Target

type phase =
  | Offered (** Frozen; offer not yet acknowledged by a [Need]. *)
  | Streaming (** Chunks or the final manifest in flight. *)
  | Committing (** Receipt verified; re-homing delegations. *)
  | Committed (** Local copy destroyed and replaced by the proxy. *)
  | Receiving (** Target side: chunks/manifest arriving. *)
  | Parked (** Adopted, fsck-verified, frozen awaiting [Commit]. *)
  | Live (** Thawed and hosted here. *)
  | Aborted of string

val pp_phase : Format.formatter -> phase -> unit

val status : t -> mig:string -> (role * phase) option
val migrations : t -> (string * role * phase) list
(** Every migration this endpoint keeps (see above), sorted by id. *)

val idle : t -> bool
(** No migration in a non-terminal phase and nothing deferred. *)

val domain : t -> mig:string -> Tyche.Domain.id option
(** The local domain of a migration. Source side: the migrating domain,
    until the commit destroys it. Target side: the adopted copy once
    created — after an abort too, which must have destroyed it. *)

val proxy_domain : t -> mig:string -> Tyche.Domain.id option
(** Source side: the [remote:<peer>:<name>] proxy once committed. *)

val chunk_count : t -> int
(** Distinct content-addressed chunks held durably (dedup store): the
    ones a receiving or parked target names. *)

(** {2 Transfer receipts}

    The target's durable record of what it verified before acking: the
    source's pre-migration batch-attest root, the domain's measurement
    and the portable digests. {!verify_receipt} re-checks the chain
    after any crash: the adopted domain's current configuration still
    hashes to [rc_state], its attestation still carries [rc_measurement],
    and the transferred attestation's Merkle inclusion in [rc_root]
    still verifies (plus the root signature when {!set_peer_root} has
    installed the source root of the transfer epoch). *)

type receipt = {
  rc_mig : string;
  rc_origin : Network.endpoint;
  rc_root : Crypto.Sha256.digest;
  rc_measurement : Crypto.Sha256.digest;
  rc_state : Crypto.Sha256.digest;
  rc_image : Crypto.Sha256.digest;
}

val receipt : t -> mig:string -> receipt option
val verify_receipt : t -> mig:string -> bool
