(** Many-time signatures: a Merkle forest of Winternitz one-time keys
    (an XMSS-style construction, without the BDS traversal optimisation).

    This is the signing identity used by the simulated TPM endorsement key
    and by the isolation monitor's attestation key. A signer is created
    with a capacity of [2^height] signatures; each [sign] consumes one
    one-time key and embeds its Merkle inclusion proof, so a verifier only
    needs the 32-byte public root. A signer holds a 32-byte seed per key,
    the Merkle tree and one ~34 KiB link buffer (about 200 KiB at height
    10); each [sign] pays one {!Ots.expand} into that buffer. *)

type signer
type signature

val create : ?height:int -> ?pool:Keypool.t -> Rng.t -> signer
(** [create ~height rng] builds a signer with [2^height] one-time keys
    (default height 6 = 64 signatures — enough for the test scenarios;
    key generation is O(2^height) hash chains), generated on the spot by
    {!Keypool.generate_batch} on every hardware thread. When [pool] is
    given the keys are drawn from it one {!Keypool.take} at a time, and
    every subsequent {!sign} eagerly replenishes it — moving key
    generation off the boot and rotation paths. Unpooled, the keys are
    byte for byte those of [2^height] sequential {!Keypool.generate}
    calls on [rng]. *)

val public_root : signer -> Sha256.digest
(** The verification key: the Merkle root over all one-time public keys. *)

val remaining : signer -> int
(** One-time keys not yet consumed. *)

val sign : signer -> string -> signature
(** Sign arbitrary bytes (hashed internally). Consumes one key.
    @raise Failure if the signer is exhausted. *)

val sign_spec : signer -> string -> signature
(** [sign] with the one-time signature computed by {!Ots.sign_spec};
    byte-identical to [sign] for the same key index and message (the
    scheme is deterministic). Consumes one key.
    Used as a cross-check and as the E14 benchmark baseline.
    @raise Failure if the signer is exhausted. *)

val verify : root:Sha256.digest -> string -> signature -> bool
(** Verify a signature against the 32-byte public root. *)

val signature_to_string : signature -> string
val signature_of_string : string -> signature
(** Wire format for embedding signatures in quotes.
    @raise Invalid_argument on malformed input. *)
