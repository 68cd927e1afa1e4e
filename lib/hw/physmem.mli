(** Simulated physical memory addressed by {!Addr.t}, held page by
    page: every 4 KiB frame that has never been written shares one zero
    page, and a frame gets its own bytes on its first write, so host
    memory grows with the pages written, not with [size]. Clearing a
    whole frame ({!zero_range}) hands it back to the zero page.

    This module performs no access control — it is the raw DRAM. All
    protection is enforced above it: CPU accesses go through {!Ept} or
    {!Pmp} checks, device DMA goes through {!Iommu}. Reading or writing
    outside the populated range raises, modelling a machine-check. *)

type t

exception Bus_error of Addr.t
(** Raised on access outside physical memory (hardware machine-check). *)

val create : size:int -> t
(** [create ~size] makes [size] bytes of zeroed physical memory.
    @raise Invalid_argument if size is not page-aligned or non-positive. *)

val size : t -> int
val full_range : t -> Addr.Range.t

val read_byte : t -> Addr.t -> int
val write_byte : t -> Addr.t -> int -> unit
val read : t -> Addr.Range.t -> string
val write : t -> Addr.t -> string -> unit

val zero_range : t -> Addr.Range.t -> unit
(** Clear a range; the revocation "zeroing" clean-up policy uses this.
    Clears any attached page taint over the range ({!set_taint}). *)

val set_taint : t -> Taint.t -> unit
(** Attach the machine's taint oracle (done once by {!Machine.create}):
    {!zero_range} then erases page taint it cleans, and checked CPU
    accesses consult {!observe_taint}. *)

val observe_taint : t -> reader:int -> Addr.t -> unit
(** Report a checked access by [reader] (an ASID = domain id) to the
    attached oracle — {!Taint.observe_page}. No-op when none is
    attached. *)

val measure : t -> Addr.Range.t -> Crypto.Sha256.digest
(** Hash the current content of a range (attestation measurement). *)

val blit : t -> src:Addr.Range.t -> dst:Addr.t -> unit
(** Copy [src] to [dst] (used by the loader). Ranges may not overlap. *)
