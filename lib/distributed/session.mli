(** Attested cross-machine sessions between trust domains.

    Implements §4.2's multi-machine exploration: "RDMA support for
    Tyche-based TEEs running on separate machines" and "extend
    attestation to multi-domain deployments with the insurance that all
    communication paths are secured and attested".

    Trust model: a broker (the customer of Fig. 2, or any party both
    endpoints already trust) verifies *both* machines' boot chains and
    *both* domains' attestations against its reference values and
    policies. Only then does it provision a shared session key to each
    side — through the machine-local attested path demonstrated in the
    SaaS example, which this module abstracts as the successful return
    of {!establish}. Datagrams then cross the untrusted {!Network} with
    sequence numbers and HMACs: the adversary can drop or reorder (RDMA
    semantics surface that as an error) but cannot forge, modify or
    replay. *)

(** What one endpoint submits to the broker. *)
type evidence = {
  quote : Rot.Tpm.Quote.t;
  attestation : Tyche.Attestation.t;
}

val gather_evidence :
  Tyche.Monitor.t -> domain:Tyche.Domain.id -> nonce:string -> (evidence, string) result
(** Collected by the local (untrusted!) OS on each machine — nothing
    here is trusted until the broker checks signatures. *)

(** One side of the broker's verification requirements. *)
type party = {
  name : Network.endpoint;
  reference : Verifier.reference_values;
  policy : Verifier.Policy.t;
}

val establish :
  nonce:string ->
  a:party * evidence ->
  b:party * evidence ->
  (string * string, string list) result
(** Verify both sides; on success return the two session-key copies
    (they are equal; returned twice to mirror the two provisioning
    messages). On failure, every reason. The key is derived from both
    attestations' measurements and the nonce, so distinct deployments
    get distinct keys. *)

(** {2 Establishment over a lossy network} *)

type establish_error =
  | Rejected of string list
  (** Cryptographic or policy verification failed. Deterministic —
      retrying identical evidence cannot change the verdict, so the
      broker gives up immediately. *)
  | Timeout of { attempts : int; waited : int }
  (** The attempt budget ran out before one intact evidence exchange:
      [attempts] tries were made and [waited] backoff units simulated. *)

val establish_error_to_string : establish_error -> string

val establish_over :
  Network.t ->
  broker:Network.endpoint ->
  ?adversary:(int -> unit) ->
  nonce:string ->
  a:party * evidence ->
  b:party * evidence ->
  unit ->
  ((string * string) * int, establish_error) result
(** {!establish}, but the attestation evidence crosses the untrusted
    (and possibly lossy) {!Network} to the [broker] endpoint, with
    retries: each attempt sends both attestations, then tries to
    receive and parse both; a drop (the ["net.deliver"] fault point, or
    the adversary's {!Network.drop_head}) or in-flight tampering makes
    the whole exchange retry after a backoff that doubles from 1 up to
    8 units, at most 5 times. [adversary] runs between send and
    receive on each attempt (its argument is the 1-based attempt
    number) — tests use it to drop or tamper queued datagrams.
    On success returns the session keys and the attempt number that
    made it through. Stale datagrams from earlier partial exchanges are
    drained before each attempt, so a late duplicate can never satisfy
    a later round. The whole establishment runs under one fresh
    {!Obs.new_trace} id inside a ["session.establish"] span, so every
    attempt, retry and verification event it emits — across both
    monitors' evidence — shares a causally-ordered trace. *)

(** The secured link, once each side holds the session key. *)
type link

val connect :
  Network.t -> local:Network.endpoint -> remote:Network.endpoint -> key:string -> link

val send : link -> string -> unit
(** Frame = sequence number, payload, HMAC(key, seq || payload). *)

(** Why {!recv} returned nothing, typed like PR 3's
    {!establish_error} so callers can branch without string matching. *)
type recv_error =
  | Tampered
  (** Bad MAC: forgery or in-flight tamper. The frame is discarded and
      the link state is unchanged. *)
  | Stale of { seq : int; last : int }
  (** The MAC verified but [seq] is at or below [last], the highest
      sequence number already accepted. Cryptographically this is
      indistinguishable between an adversary replaying an old frame and
      a legitimately reordered frame arriving after a later one was
      accepted ({!recv} admits ahead-of-sequence frames, skipping gaps)
      — typed apart from {!Tampered} so callers can count
      reorder-induced loss separately from forgery. The frame is
      discarded; the link state is unchanged. *)
  | Closed
  (** Nothing to receive: no datagram is pending for this endpoint
      (the queue is empty — not necessarily torn down). *)
  | Decode of string
  (** The frame could not even be parsed (truncated or mis-framed);
      carries the parser's reason. *)

val recv_error_to_string : recv_error -> string

val recv : link -> (string, recv_error) result
(** Returns the next authenticated payload with a sequence number above
    every previously accepted one. Gaps are skipped (the link has no
    retransmission); a skipped frame arriving late surfaces as
    {!Stale}. *)

val sent : link -> int
val received : link -> int
