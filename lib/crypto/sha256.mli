(** From-scratch SHA-256 (FIPS 180-4).

    This is the only hash used by the whole system: TPM PCR extension,
    domain measurements, Merkle trees and the hash-based signature scheme
    are all built on it. It processes arbitrary [string] / [Bytes.t]
    messages.

    The block compression runs on the x86 SHA extensions where a CPUID
    probe finds them, and otherwise on an OCaml core of unboxed [Int32]
    words in preallocated scratch buffers ({!Kernel}); both give the
    same bytes. The one-shot entry points reuse a scratch context per
    OCaml domain, so hashing allocates nothing but the returned digest
    and is safe from any number of domains at once. The original Int32
    transliteration is preserved as {!Spec} and cross-checked in
    tests. *)

type digest
(** A 32-byte SHA-256 digest. Abstract to prevent confusion with raw
    strings; use {!to_raw} / {!of_raw} at serialization boundaries. *)

val digest_size : int
(** Size of a digest in bytes (32). *)

val string : string -> digest
(** [string s] hashes the whole string [s]. *)

val digest_strings : string list -> digest
(** [digest_strings ss] hashes the concatenation of [ss] without
    materializing it — the multi-buffer one-shot used by canonical
    payload construction. *)

val concat : digest list -> digest
(** [concat ds] hashes the concatenation of the raw digests [ds]; used for
    PCR-style folds and Merkle interior nodes. *)

type chain_scratch
(** The buffers one chain step compresses in. *)

val chain_scratch : unit -> chain_scratch
(** The calling OCaml domain's chain buffers. Fetch them once for a run
    of {!hash32_sub} steps and never hand them to another domain. *)

val hash32_sub :
  chain_scratch -> src:Bytes.t -> src_off:int -> dst:Bytes.t -> dst_off:int -> unit
(** [hash32_sub c ~src ~src_off ~dst ~dst_off] writes SHA-256 of the
    32 bytes of [src] at [src_off] into the 32 bytes of [dst] at
    [dst_off] (the two slices may be the same). A 32-byte message fits
    one padded block, so this is a single compression with zero
    allocation — the kernel under {!Ots} hash chains, whose links live
    in one flat buffer (see {!Ots.expand}).
    @raise Invalid_argument if either 32-byte slice is out of bounds. *)

val to_raw : digest -> string
(** Raw 32-byte big-endian representation. *)

val of_raw : string -> digest
(** Inverse of {!to_raw}.
    @raise Invalid_argument if the input is not exactly 32 bytes. *)

val to_hex : digest -> string
(** Lowercase hexadecimal rendering (64 chars). *)

val equal : digest -> digest -> bool
val compare : digest -> digest -> int
val pp : Format.formatter -> digest -> unit

val zero : digest
(** The all-zero digest, used as the initial value of measurement
    registers (TPM PCR reset state). *)

(** Incremental hashing interface, for streaming measurement of large
    memory regions without copying them into one buffer. *)
module Ctx : sig
  type t

  val create : unit -> t
  val feed_bytes : t -> Bytes.t -> off:int -> len:int -> unit
  val feed_string : t -> string -> unit
  val finalize : t -> digest

  val reset : t -> unit
  (** Return the context to its freshly-created state so it can be
      reused without reallocating its buffers. *)
end

(** The two block-compression kernels, for tests to run side by side. *)
module Kernel : sig
  type t = Hardware  (** x86 SHA extensions, in C *) | Ocaml

  val live : t
  (** The kernel every hash runs: [Hardware] exactly when the CPU has
      the SHA, SSSE3 and SSE4.1 extensions. *)

  val compress : t -> state:Bytes.t -> block:Bytes.t -> off:int -> unit
  (** Compress the 64 bytes of [block] at [off] into the 32-byte [state].
      @raise Invalid_argument if a slice is out of bounds, or on
      [Hardware] without the extensions. *)
end

(** The executable specification: the original Int32 implementation,
    transliterated from FIPS 180-4. Slow (every Int32 operation boxes)
    but easy to audit; the fast core is property-tested against it, and
    the E14 benchmarks use it as the pre-optimization baseline. *)
module Spec : sig
  val string : string -> digest
end
