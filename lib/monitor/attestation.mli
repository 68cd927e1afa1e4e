(** Domain attestations: tier two of the attestation protocol (§3.4).

    Tier one is the TPM quote over the boot PCRs ({!Rot.Tpm.Quote}),
    which convinces a verifier that a specific monitor controls the
    machine and binds the monitor's attestation key. Tier two — this
    module — is a monitor-signed report that enumerates one domain's
    physical resources, their reference counts and the seal-time
    measurement, making sharing and communication paths explicit so a
    remote party can verify controlled sharing (refcount 1 = exclusive,
    refcount 2 = pairwise channel). *)

type region_report = {
  range : Hw.Addr.Range.t;
  perm : Hw.Perm.t;
  refcount : int; (** Distinct domains that can reach the region. *)
  holders : Domain.id list; (** Who they are, sorted. *)
  measured : bool; (** Included in the seal-time measurement. *)
}

(** How a report is authenticated. The monitor builds a Merkle tree
    over the canonical payloads of a batch of reports and signs only
    the root; each report carries the root, its inclusion proof and the
    shared root signature, so a 64-domain batch consumes one one-time
    key instead of 64. A single attest is a batch of one. The root is
    signed under its own domain separator, so a root signature can
    never pass for a signature over a payload. *)
type evidence = {
  batch_root : Crypto.Sha256.digest;
  proof : Crypto.Merkle.proof;
  root_sig : Crypto.Signature.signature;
}

type t = {
  domain : Domain.id;
  domain_name : string;
  kind : Domain.kind;
  sealed : bool;
  measurement : Crypto.Sha256.digest option; (** Seal-time measurement. *)
  regions : region_report list;
  cores : (int * int) list; (** (core id, refcount). *)
  devices : (int * int) list; (** (packed BDF, refcount). *)
  memory_encrypted : bool;
      (** The platform holds this domain's memory under a private
          encryption key (MKTME/SEV-style physical-attack resistance). *)
  nonce : string; (** Verifier-supplied freshness. *)
  evidence : evidence;
}

val payload : t -> string
(** The canonical byte serialization the signature covers. Deterministic:
    regions are reported in address order, cores and devices in id
    order. *)

val sign_batch :
  signer:Crypto.Signature.signer ->
  nonce:string ->
  (Domain.t * region_report list * (int * int) list * (int * int) list * bool) list ->
  t list
(** [sign_batch ~signer ~nonce entries] canonicalizes every entry
    [(domain, regions, cores, devices, memory_encrypted)], builds a
    Merkle tree over the canonical payloads, signs only the root, and
    returns one report per entry (in input order), each carrying its
    inclusion proof. Consumes exactly one one-time key for the whole
    batch; returns [[]] for an empty batch without consuming anything.
    @raise Invalid_argument if a domain name contains ['\x00'] (the
    payload encodes names NUL-terminated). *)

val sign_spec :
  signer:Crypto.Signature.signer ->
  domain:Domain.t ->
  regions:region_report list ->
  cores:(int * int) list ->
  devices:(int * int) list ->
  memory_encrypted:bool ->
  nonce:string ->
  t
(** {!sign_batch} of one on the {!Crypto.Sha256.Spec}
    executable-specification stack — identical output for the same key
    index; the E14 baseline. *)

val verify : monitor_root:Crypto.Sha256.digest -> t -> bool
(** Check the monitor's evidence for the report: the root signature
    and this report's Merkle inclusion proof under that root. *)

val to_wire : t -> string
(** Self-contained byte encoding (envelope version 2) for shipping to a
    remote verifier: magic, payload, batch root, proof, root signature. *)

val of_wire : string -> (t, string) result
(** Total parser for {!to_wire}. Any reconstruction error — a missing
    magic (as in the retired version-1 envelope of a directly signed
    report), truncation, inconsistent refcounts vs holder lists,
    non-canonical permission characters, malformed signature — is
    reported rather than raised; {!verify} decides trust. *)

val pp : Format.formatter -> t -> unit
(** Render the report as the Fig. 4-style table. *)
