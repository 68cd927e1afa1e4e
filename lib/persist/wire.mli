(** Fixed-width little-endian wire codec for the durable store.

    Deliberately boring: fixed-width integers, length-prefixed strings,
    count-prefixed lists. Every decoder bounds-checks before reading and
    raises {!Corrupt} on malformed input — recovery catches it and
    treats the record as untrustworthy, exactly like a CRC mismatch
    (defense in depth behind the CRC: a framing bug or version skew
    must never crash recovery or admit garbage into the tree). *)

exception Corrupt of string

(** {2 Encoding} *)

val u8 : Buffer.t -> int -> unit
(** Low 8 bits. *)

val u32 : Buffer.t -> int -> unit
(** Low 32 bits, little-endian. *)

val i64 : Buffer.t -> int -> unit
(** Full OCaml int as a little-endian 64-bit two's-complement word
    (addresses, ids, sequence numbers, [-1] sentinels). *)

val bool_ : Buffer.t -> bool -> unit
val str : Buffer.t -> string -> unit
(** [u32] length prefix, then the bytes. *)

val list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** [u32] count prefix, then each element in order. *)

(** {2 Decoding} *)

type reader

val reader : string -> reader
val pos : reader -> int

val get_u8 : reader -> int
val get_i64 : reader -> int
val get_bool : reader -> bool
val get_str : reader -> string
val get_list : reader -> (reader -> 'a) -> 'a list

val expect_end : reader -> unit
(** @raise Corrupt if any input bytes remain — a decoded record must
    account for every byte the CRC vouched for. *)
