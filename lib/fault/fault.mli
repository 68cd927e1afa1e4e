(** Deterministic fault injection for the hardware substrate, the
    backends, the keypool, the allocator and the network.

    A module that models a fallible operation registers a named
    injection {!point} once (at module initialization) and calls {!hit}
    or {!fires} on every operation. When no plan is armed the check is a
    single reference comparison, so fault-free paths pay nothing
    measurable. A {!plan} — armed for a dynamic scope with {!with_plan}
    — decides which hits inject a fault; all plans are deterministic
    (seeded splitmix64, never wall-clock), so any failing run replays
    from its seed (see the [TYCHE_FAULT_SEED] override in
    [test/test_fault.ml]).

    Global per-point [hits]/[trips] counters accumulate across plans for
    the fault-coverage report ({!report}); per-plan counters (the "N" in
    "fail the Nth PMP write") reset every time a plan is armed. *)

type point

exception Injected of { point : string; trip : int }
(** Raised by {!hit} when the armed plan trips. Backends catch this at
    the effect boundary and convert it into a typed error; it must never
    escape a monitor API call. *)

val register : string -> point
(** Idempotent: registering the same name twice returns the same point
    (and its counters). *)

val name : point -> string

val hits : point -> int
(** Times the point was evaluated while a plan was armed. *)

val trips : point -> int
(** Times the point injected a fault (cumulative across plans). *)

val points : unit -> point list
(** Every registered point, sorted by name. *)

val report : unit -> (string * int * int) list
(** [(name, hits, trips)] for every registered point — the coverage
    report the chaos driver asserts over. *)

val reset_counters : unit -> unit
(** Zero all global hit/trip counters (coverage accounting only; does
    not disarm a plan). *)

(** {2 Plans} *)

type plan

val plan :
  ?seed:int64 ->
  ?default:[ `Nth of int | `Always | `Rate of float ] ->
  (string * [ `Nth of int | `Always | `Rate of float ]) list ->
  plan
(** General constructor: per-point rules plus an optional default
    applied to every point without an explicit rule. [`Nth n] trips the
    n-th hit of that point since the plan was armed; [`Rate r] trips
    each hit independently with probability [r], drawn from a stream
    seeded by [seed]. *)

val nth : string -> int -> plan
(** [nth point n]: fail the [n]-th hit of [point] (1-based).
    @raise Invalid_argument if [n <= 0]. *)

val always : string -> plan
(** Fail every hit of the point. *)

val random : seed:int -> rate:float -> plan
(** Fail every registered point independently with probability [rate],
    deterministically from [seed].
    @raise Invalid_argument if [rate] is outside [0..1]. *)

val with_plan : plan -> (unit -> 'a) -> 'a
(** Arm the plan for the scope of the callback (restoring the previous
    plan after, exception-safe). Arming resets the plan's per-point hit
    counters and reseeds its random stream, so the same plan armed twice
    behaves identically. *)

val suspend : (unit -> 'a) -> 'a
(** Disable injection on the calling OCaml domain for the scope of the
    callback (nestable). Rollback paths run under [suspend] so that
    undoing a faulted operation cannot itself fault. *)

val suspended : unit -> bool

val enabled : unit -> bool
(** A plan is armed and injection is not suspended. *)

(** {2 Injection points (called by instrumented modules)} *)

val fires : point -> bool
(** Evaluate the point against the armed plan: true when the operation
    should fail. For operations whose failure is a silent degradation
    (a dropped datagram, a keypool miss) rather than an exception. *)

val hit : point -> unit
(** Like {!fires} but raises {!Injected} when the plan trips — for
    operations (PMP/EPT/IOMMU writes) whose failure aborts the
    enclosing backend effect. *)

(** {2 Deterministic streams (for adversarial drivers)}

    The same splitmix64 generator that drives [`Rate] rules, exposed so
    seed-replayable drivers (the byzantine fuzzer, chaos harnesses)
    derive their attack streams from the one generator this library
    already commits to — one seed, one stream discipline, identical
    replay across machines. *)

module Splitmix : sig
  type t

  val create : int -> t
  (** Seed a stream. Equal seeds yield equal streams forever. *)

  val next : t -> int
  (** Next value, uniform over non-negative OCaml [int]s. *)

  val below : t -> int -> int
  (** [below t n]: uniform in [0, n).
      @raise Invalid_argument if [n <= 0]. *)

  val chance : t -> float -> bool
  (** [chance t p]: true with probability [p]. *)

  val pick : t -> 'a list -> 'a
  (** Uniform element of a non-empty list.
      @raise Invalid_argument on an empty list. *)
end
