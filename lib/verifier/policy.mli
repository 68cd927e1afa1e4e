(** Declarative attestation policies.

    A remote party does not read attestations by hand: it states the
    properties its trust decision needs — "this exact binary", "that
    region is exclusively owned", "shared with nobody but the crypto
    engine" — and checks the signed report against them. This is how
    the paper's customer in Fig. 2 decides to provision its key. *)

type requirement =
  | Sealed (** The domain's configuration is frozen. *)
  | Kind_is of Tyche.Domain.kind
  | Measurement_is of Crypto.Sha256.digest
      (** Matches libtyche's offline hash of the expected binary. *)
  | Region_exclusive of Hw.Addr.Range.t
      (** Every reported region overlapping this range has refcount 1. *)
  | Region_shared_only_with of Hw.Addr.Range.t * Tyche.Domain.id list
      (** Holders of overlapping regions are the domain itself plus at
          most the listed partners. *)
  | No_foreign_sharing_except of Tyche.Domain.id list
      (** Globally: no region is reachable by any domain outside this
          allow-list (the domain itself is always allowed). *)
  | Has_core of int
  | Holds_device of int
  | Memory_encrypted
      (** The platform keeps the domain's memory under a private
          encryption key — required for physical-attack resistance. *)

type t = requirement list

val check : t -> Tyche.Attestation.t -> (unit, string list) result
(** Evaluate every requirement; returns all failures, not just the
    first. Does NOT verify the signature — compose with
    {!Chain.verify_domain}. *)
