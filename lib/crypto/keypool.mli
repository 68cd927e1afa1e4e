(** Pregenerated one-time keys for the attestation signers.

    A {!Signature.signer} needs the leaf digest of each of its
    [2^height] keys up front (the Merkle root commits to all of them),
    and each leaf walks 67 hash chains of 15 steps. A keypool moves that
    work off the boot / key-rotation path: it stocks (seed, leaf digest)
    handles, {!take} pops one in O(1), and {!Signature.sign} eagerly
    calls {!replenish} after each signature so the stock is already
    rebuilt by the time a fresh signer is needed.

    Security note: the pool changes *when* keys are generated, never
    *how* — seeds come from the same [Rng] stream and each key is still
    used at most once (the signer enforces one-shot use). *)

type t

val create : ?low_water:int -> ?target:int -> Rng.t -> t
(** [create ?low_water ?target rng] builds a pool and prefills it with
    [target] handles (default 128 — two default-height signers' worth).
    [low_water] (default [target / 2]) is the threshold below which
    {!replenish} refills back to [target].
    @raise Invalid_argument if [target < 0] or [low_water] is not within
    [0 .. target]. *)

val generate : Rng.t -> Ots.secret_key * Sha256.digest
(** One handle generated on the spot, drawing the [Rng] as a pool does. *)

val take : t -> Ots.secret_key * Sha256.digest
(** Pop a pregenerated handle; falls back to generating one on the spot
    when the stock is empty (a miss, visible in {!stats}). *)

val replenish : t -> unit
(** Refill the stock to [target] if it has dropped below [low_water];
    O(1) when the stock is healthy. *)

val size : t -> int
(** Handles currently in stock. *)

val low_water : t -> int
val target : t -> int

val stats : t -> int * int
(** [(hits, misses)]: takes served from stock vs. generated on demand.
    A take failed by an armed fault plan counts as a miss — the pool
    degrades to on-demand generation, it never fails a signature. *)

val miss_rate : t -> float
(** [misses / (hits + misses)], or [0.] before any take — surfaced in
    [Monitor.attest] telemetry so operators see pool starvation. *)
