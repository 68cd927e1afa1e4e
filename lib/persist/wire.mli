(** Varint wire codec for the durable store.

    Every integer is a LEB128 varint: seven bits per byte, least
    significant group first, the top bit set on every byte but the
    last. Lengths and counts ({!uint}) encode the int as it is; [int]
    fields ({!int}) are zigzag-mapped first (0, -1, 1, -2, ... become
    0, 1, 2, 3, ...), so ids, addresses, sequence numbers and the [-1]
    sentinel are short whatever their sign. Values below 128 take one
    byte, below 2{^14} two, and any 63-bit int at most nine. Strings
    are a {!uint} length then the bytes; lists a {!uint} count then the
    elements. Bytes, bools and the WAL's CRC are fixed width.

    Decoding is strict: a varint must be the one canonical (shortest)
    spelling of its value — no trailing zero group — and at most nine
    bytes, the ninth ending it; an overlong, over-wide or truncated
    varint raises {!Corrupt}. So every value has exactly one encoding
    and a record's bytes are a function of its fields. Every decoder
    bounds-checks before reading and raises {!Corrupt} on malformed
    input — recovery catches it and treats the record as
    untrustworthy, exactly like a CRC mismatch (defense in depth behind
    the CRC: a framing bug or version skew must never crash recovery or
    admit garbage into the tree). Stores written with the earlier
    fixed-width integers do not decode. *)

exception Corrupt of string

(** {2 Encoding} *)

val u8 : Buffer.t -> int -> unit
(** Low 8 bits. *)

val u32 : Buffer.t -> int -> unit
(** Low 32 bits, little-endian (the WAL frame's CRC). *)

val uint : Buffer.t -> int -> unit
(** LEB128 varint of the int's 63-bit pattern: lengths, counts and WAL
    sequence numbers. A negative int round-trips but takes nine
    bytes. *)

val int : Buffer.t -> int -> unit
(** Zigzag LEB128 varint of any OCaml int (addresses, ids, sequence
    numbers, [-1] sentinels): one byte for [-64 .. 63]. *)

val bool_ : Buffer.t -> bool -> unit
val str : Buffer.t -> string -> unit
(** {!uint} length prefix, then the bytes. *)

val list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** {!uint} count prefix, then each element in order. *)

(** {2 Decoding} *)

type reader

val reader : ?pos:int -> string -> reader
(** A reader over the string, starting at [pos] (default 0). *)

val pos : reader -> int
val get_u8 : reader -> int
val get_u32 : reader -> int
val get_uint : reader -> int
val get_int : reader -> int
val get_bool : reader -> bool
val get_str : reader -> string
val get_list : reader -> (reader -> 'a) -> 'a list

val expect_end : reader -> unit
(** @raise Corrupt if any input bytes remain — a decoded record must
    account for every byte the CRC vouched for. *)
