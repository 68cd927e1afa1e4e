(** Access rights carried by a capability.

    Rights combine hardware permissions (what accesses the holder may
    perform on the resource) with capability operations (whether the
    holder may further share or transfer it). Rights only ever attenuate
    along the capability tree: a derived capability can never exceed its
    parent ({!attenuates}). *)

type t = {
  perm : Hw.Perm.t; (** Hardware access permissions. *)
  can_share : bool; (** May create sharing children. *)
  can_grant : bool; (** May transfer ownership. *)
}

val full : t
(** rwx + share + grant — what root capabilities start with. *)

val read_only : t
val rw : t
val rx : t

val exclusive_use : t
(** rwx but neither shareable nor grantable — for sealed leaves. *)

val attenuates : parent:t -> child:t -> bool
(** True when [child] is no stronger than [parent] in every dimension. *)

val equal : t -> t -> bool

val to_bits : t -> int
(** The rights as one byte: read | write≪1 | exec≪2 | share≪3 | grant≪4.
    The write-ahead log, checkpoints, fleet frames and migration manifests
    all carry this code. *)

val of_bits : int -> t option
(** Inverse of {!to_bits}; [None] if any bit above the low five is set. *)

val pp : Format.formatter -> t -> unit
