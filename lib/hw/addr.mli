(** Physical addresses and address ranges.

    Every resource-management decision in the system — capability splits,
    EPT mappings, PMP segments, IOMMU windows — is phrased in terms of
    physical address ranges, so this module is shared by the whole stack.
    Addresses are plain [int]s (the simulated machines are well under
    2^62 bytes). *)

type t = int
(** A physical address. *)

val page_size : int
(** 4 KiB, the granularity of EPT mappings. *)

val is_page_aligned : t -> bool
val align_down : t -> t
val align_up : t -> t
val pp : Format.formatter -> t -> unit

(** Half-open ranges [\[base, base+len)]. *)
module Range : sig
  type nonrec t = private { base : t; len : int }

  val make : base:int -> len:int -> t
  (** @raise Invalid_argument if [len <= 0] or [base < 0]. *)

  val of_bounds : lo:int -> hi:int -> t
  (** Range covering [\[lo, hi)]. @raise Invalid_argument if [hi <= lo]. *)

  val base : t -> int
  val len : t -> int
  val last : t -> int
  (** Inclusive last address, [base + len - 1]. *)

  val limit : t -> int
  (** Exclusive end, [base + len]. *)

  val contains : t -> int -> bool
  val includes : outer:t -> inner:t -> bool
  val overlaps : t -> t -> bool
  val equal : t -> t -> bool
  val compare : t -> t -> int

  val intersect : t -> t -> t option
  val subtract : t -> t -> t list
  (** [subtract a b] returns the parts of [a] not covered by [b]
      (0, 1 or 2 ranges, in address order). *)

  val adjacent : t -> t -> bool
  (** True when the ranges abut exactly (no gap, no overlap). *)

  val merge : t -> t -> t option
  (** Merge adjacent or overlapping ranges into one; [None] if disjoint
      with a gap. *)

  val union : t list -> t list
  (** The ranges' union as sorted, pairwise disjoint ranges; overlapping
      or touching ranges merge, so no two results touch. *)

  val split_at : t -> int -> (t * t) option
  (** [split_at r a] cuts [r] at address [a] (strictly inside). *)

  val is_page_aligned : t -> bool
  val pages : t -> int list
  (** Base addresses of the 4 KiB pages covering the range. *)

  val pp : Format.formatter -> t -> unit
end
