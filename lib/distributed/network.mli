(** An untrusted message network between machines.

    Models the transport for §4.2's "RDMA support for Tyche-based TEEs
    running on separate machines": datagrams between named endpoints,
    delivered in order but through an adversary who can read, modify,
    drop, duplicate, reorder, replay and partition everything. Security
    must come from the endpoints ({!Session}, {!Fleet}), never from
    here. *)

type t
type endpoint = string

val create : unit -> t

val send : t -> from_:endpoint -> to_:endpoint -> string -> unit
val recv : t -> endpoint -> string option
(** Dequeue the oldest pending datagram for the endpoint. *)

val pending : t -> endpoint -> int

(** {2 The adversary's console} *)

val eavesdrop : t -> endpoint -> string list
(** Copies of every datagram currently queued for the endpoint. *)

val tamper_head : t -> endpoint -> f:(string -> string) -> bool
(** Rewrite the next datagram the endpoint will receive; false if the
    queue is empty. *)

val drop_head : t -> endpoint -> bool
val inject : t -> to_:endpoint -> string -> unit
(** Forge a datagram out of thin air. *)

val replay : t -> to_:endpoint -> string -> unit
(** Re-enqueue a previously captured datagram. *)

val reorder : t -> endpoint -> seed:int -> bool
(** Shuffle the endpoint's pending queue with a seeded Fisher–Yates
    permutation (deterministic for a given seed and queue content);
    false if fewer than two datagrams are queued. *)

val duplicate : t -> endpoint -> seed:int -> bool
(** Re-enqueue a copy of one seeded-randomly chosen pending datagram at
    the back of the endpoint's queue; false if the queue is empty. *)

(** {2 Partitions}

    A cut severs the pair in {e both} directions: sends between the two
    endpoints vanish in flight (senders cannot observe it, exactly like
    a ["net.deliver"] drop) until {!heal}. Datagrams already queued
    before the cut remain deliverable. *)

val partition : t -> endpoint -> endpoint -> unit
val heal : t -> endpoint -> endpoint -> unit
val heal_all : t -> unit

(** {2 Statistics} *)

val total_messages : t -> int
(** Messages ever sent (statistics). *)

val total_bytes : t -> int
(** Payload bytes ever offered to {!send}/{!inject}, including messages
    later dropped or partitioned away — what the wire would have
    carried. Migration benches diff this around a transfer to price
    bytes-on-wire. *)

val dropped : t -> int
(** Messages silently dropped in flight by an armed fault plan firing
    the ["net.deliver"] point (statistics). Senders cannot observe a
    drop — {!Session} must tolerate it with retries. *)

val reordered : t -> int
(** Messages shuffled by {!reorder} (counts every datagram in each
    permuted queue). *)

val duplicated : t -> int
(** Copies enqueued by {!duplicate}. *)

val partition_drops : t -> int
(** Messages silently dropped in flight because the sender/receiver
    pair was partitioned at send time. *)
