(** Deterministic pseudo-random generator (SplitMix64).

    The whole simulation must be reproducible, so all randomness — key
    generation, workload generation, nonce creation — flows through
    explicitly seeded generators rather than a global RNG. *)

type t

val create : seed:int64 -> t

val next_int64 : t -> int64
val int : t -> int -> int
(** [int t bound] returns a uniform value in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val bytes : t -> int -> string
(** [bytes t n] returns [n] pseudo-random bytes. *)

val bool : t -> bool
val split : t -> t
(** Derive an independent child generator; the parent advances. *)
