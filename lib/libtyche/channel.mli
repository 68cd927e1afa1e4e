(** Secured shared-memory channels between domains (§4.2).

    A channel is carved out of memory the owner holds exclusively and
    shared with exactly one peer, so its reference count is 2 — which
    both endpoints (and any remote verifier reading their attestations)
    can check before trusting it. Messages are length-prefixed and
    HMAC-authenticated with a key derived from a secret the endpoints
    established through the channel's exclusive predecessor state. *)

type t

val create :
  Tyche.Monitor.t ->
  owner:Tyche.Domain.id ->
  peer:Tyche.Domain.id ->
  memory_cap:Cap.Captree.cap_id ->
  range:Hw.Addr.Range.t ->
  ?key:string ->
  unit ->
  (t, string) result
(** Carve [range] out of [memory_cap] (owned by [owner]) and share it
    read-write with [peer]. [key] (default derived from the range)
    authenticates messages. Fails if the carved range would not be
    exclusively owned before sharing. *)

val range : t -> Hw.Addr.Range.t
val owner : t -> Tyche.Domain.id
val peer : t -> Tyche.Domain.id

val is_private : t -> Tyche.Monitor.t -> bool
(** Judiciary check: the channel memory is reachable by exactly its two
    endpoints (refcount 2). *)

val send :
  t -> Tyche.Monitor.t -> core:int -> string -> (unit, string) result
(** Write a message as the domain currently running on [core] (must be
    an endpoint). The hardware checks the stores. *)

val recv : t -> Tyche.Monitor.t -> core:int -> (string, string) result
(** Read and authenticate the pending message.
    Fails on MAC mismatch (tampering) or an empty channel. *)

val close : t -> Tyche.Monitor.t -> (unit, string) result
(** Owner revokes the peer's capability; the channel memory is zeroed. *)
