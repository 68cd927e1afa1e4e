(** Chain-of-trust verification: tier one of the protocol (§3.4).

    The remote verifier knows two things out of band: the TPM
    manufacturer's endorsement root, and the golden measurements of the
    boot components (firmware, loader, monitor image — e.g. because the
    monitor is open source and it built the image itself). From a fresh
    quote it then derives trust in the *monitor's attestation key*,
    which makes tier-two domain attestations checkable. *)

val verify_boot_chain :
  tpm_root:Crypto.Sha256.digest ->
  expected_pcrs:(int * Crypto.Sha256.digest) list ->
  bound:Crypto.Sha256.digest list ->
  nonce:string ->
  Rot.Tpm.Quote.t ->
  (unit, string) result
(** {!verify_boot} for a PCR 18 that binds the roots [bound], in boot
    order. A sharded federation binds shard 0's monitor root and then
    the federation's aggregate-attestation root; on success the caller
    may trust signatures under any of them. *)

val verify_boot :
  tpm_root:Crypto.Sha256.digest ->
  expected_pcrs:(int * Crypto.Sha256.digest) list ->
  claimed_monitor_root:Crypto.Sha256.digest ->
  nonce:string ->
  Rot.Tpm.Quote.t ->
  (unit, string) result
(** Check, in order: the quote's signature under the TPM root; nonce
    freshness; every expected PCR value (typically from
    {!Rot.Boot.expected_pcrs}); and that PCR 18 binds
    [claimed_monitor_root] alone ({!verify_boot_chain} with one root).
    On success the caller may trust signatures under
    [claimed_monitor_root]. *)

val verify_domain :
  monitor_root:Crypto.Sha256.digest ->
  nonce:string ->
  Tyche.Attestation.t ->
  (unit, string) result
(** Tier two: the report is signed by the trusted monitor and fresh. *)
