(** Winternitz one-time signatures (WOTS, w = 16) over SHA-256.

    Hash-based signatures let the simulated TPM and the isolation monitor
    sign attestations with nothing but the SHA-256 primitive built in this
    repo — no bignum arithmetic, no external crypto. A key pair signs
    exactly one message; {!Signature} lifts this to a many-time scheme. *)

type secret_key
(** A 32-byte seed: chain [j]'s secret is SHA-256(seed || j), [j] one byte. *)

type public_key

type links
(** Every link of one expanded key (~34 KiB), reused across {!expand}s. *)

type signature = string array
(** 67 chain values of 32 bytes each. The representation is exposed so
    verifiers (and tests) can exercise {!verify}'s totality on malformed
    inputs; well-formed signatures only come from {!sign} /
    {!signature_of_string}. *)

val draw : Rng.t -> secret_key
(** A fresh seed: the next 32 bytes of the [Rng]. *)

val public_key : secret_key -> public_key
(** Walk the key's chains, keeping no links (~1,070 compressions): a
    pure function of the seed, so any domain may compute it. *)

val links : unit -> links

val expand : links -> secret_key -> public_key
(** Write every link of the key into the buffer (~1,070 SHA-256
    compressions) and return its public key. *)

val sign : links -> Sha256.digest -> signature
(** Sign a 32-byte message digest with the key last {!expand}ed into the
    buffer, by copying out the links the chunks select (no hashing).
    Signing twice with the same key leaks key material in a real
    deployment; callers must treat keys as one-shot (enforced by
    {!Signature}). *)

val sign_spec : secret_key -> Sha256.digest -> signature
(** [expand] then [sign] on the {!Sha256.Spec} executable specification:
    byte-identical output, used as a cross-check of the derivation and
    the chains and as the E14 benchmark baseline. *)

val verify : public_key -> Sha256.digest -> signature -> bool
(** Total on malformed signatures: a wrong chain count or non-32-byte
    chain values return [false] rather than raising. *)

val public_key_digest : public_key -> Sha256.digest
(** Compressed commitment to the public key (leaf value in the Merkle
    many-time scheme). *)

val public_key_to_string : public_key -> string
val public_key_of_string : string -> public_key
val signature_to_string : signature -> string
val signature_of_string : string -> signature
(** Serialization for embedding in attestation quotes.
    @raise Invalid_argument on malformed input. *)
