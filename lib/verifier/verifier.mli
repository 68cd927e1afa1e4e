(** The remote verifier: the judiciary, end to end.

    Drives the full trust-establishment flow of Fig. 2: verify the boot
    chain, derive trust in the monitor's key, fetch and verify domain
    attestations, and evaluate the customer's policies — returning one
    decision with every failure that contributed to a rejection.

    Submodules: {!Chain} (signature/PCR checking), {!Policy}
    (declarative requirements). *)

module Chain = Chain
module Policy = Policy
module Topology = Topology

(** Everything the verifier must know *before* talking to the machine
    (out-of-band / supply-chain knowledge). *)
type reference_values = {
  tpm_root : Crypto.Sha256.digest;
  expected_pcrs : (int * Crypto.Sha256.digest) list;
      (** Golden boot measurements ({!Rot.Boot.expected_pcrs}). *)
  monitor_root : Crypto.Sha256.digest;
      (** The monitor attestation key the verifier will accept. *)
}

type decision = {
  trusted : bool;
  failures : string list; (** Empty iff [trusted]. *)
}

val pp_decision : Format.formatter -> decision -> unit

val establish_trust :
  reference_values ->
  nonce:string ->
  boot_quote:Rot.Tpm.Quote.t ->
  attestations:(Tyche.Attestation.t * Policy.t) list ->
  decision
(** One-shot evaluation: boot chain first (its failure taints
    everything), then each attestation's signature, freshness and
    policy. *)

val attest_and_decide :
  Tyche.Monitor.t ->
  reference_values ->
  nonce:string ->
  domains:(Tyche.Domain.id * Policy.t) list ->
  decision
(** Convenience for tests and examples: pull the quote and one
    {!Tyche.Monitor.attest} per domain straight from a live monitor (as
    domain 0 would relay them to the remote verifier) and evaluate. *)
