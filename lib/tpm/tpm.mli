(** Software TPM: the hardware root of trust (the judiciary's anchor).

    Models the subset the paper relies on (§3.4): platform configuration
    registers (PCRs) with extend-only semantics, and signed quotes over
    selected PCRs that a remote verifier checks against the TPM's
    endorsement root. PCR 17 is reserved for dynamic launch (TXT-style
    DRTM) and can only be reset through {!dynamic_launch}. *)

type t

val drtm_pcr : int
(** PCR 17: the dynamic-launch measurement register. *)

val create : ?signer_height:int -> ?keypool:Crypto.Keypool.t -> Crypto.Rng.t -> t
(** Manufacture a TPM with a fresh endorsement (attestation) key able
    to produce [2^signer_height] quotes (default 64). When [keypool] is
    given, the endorsement signer draws its pregenerated one-time keys
    from it (see {!Crypto.Keypool}). *)

val endorsement_root : t -> Crypto.Sha256.digest
(** The public verification root for this TPM's quotes. A verifier must
    learn it out of band (manufacturer certificate). *)

val read_pcr : t -> int -> Crypto.Sha256.digest
(** @raise Invalid_argument on a bad index. *)

val extend : t -> pcr:int -> Crypto.Sha256.digest -> unit
(** [extend t ~pcr m] sets PCR := H(PCR || m) — the only way to change a
    PCR outside dynamic launch.
    @raise Invalid_argument on a bad index. *)

val dynamic_launch : t -> measured:Crypto.Sha256.digest -> unit
(** TXT-style late launch: resets {!drtm_pcr} and extends it with the
    measurement of the launched code (the isolation monitor). *)

(** A signed attestation over PCR values. *)
module Quote : sig
  type tpm := t
  type t = {
    pcr_values : (int * Crypto.Sha256.digest) list;
    nonce : string;
    signature : Crypto.Signature.signature;
  }

  val generate : tpm -> pcrs:int list -> nonce:string -> t
  (** Sign the selected PCRs together with a verifier-chosen nonce
      (freshness). Consumes one signing key from the endorsement signer. *)

  val verify : root:Crypto.Sha256.digest -> t -> bool
  (** Check the signature binds these PCR values and nonce to the TPM
      whose endorsement root is [root]. *)
end
