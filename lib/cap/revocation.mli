(** Revocation ("clean-up") policies.

    Per §3.2, a revocation policy names an operation — zeroing memory,
    flushing micro-architectural state — that the monitor *guarantees*
    executes when the resource is taken back, so a revoked domain cannot
    leave secrets behind or observe the next holder's. *)

type t =
  | Keep (** No clean-up; contents survive revocation. *)
  | Zero (** Zero memory contents. *)
  | Flush_cache (** Flush the cache lines of the region. *)
  | Zero_and_flush (** Both — the obfuscating policy the paper pairs
                       with exclusive access for confidentiality. *)

val zeroes_memory : t -> bool
val flushes_cache : t -> bool

val strongest : t -> t -> t
(** Join: the policy that performs every clean-up either side performs
    (used when merged capabilities disagree). *)

val equal : t -> t -> bool

val to_code : t -> int
(** The policy's one-byte wire code (0 = [Keep] .. 3 = [Zero_and_flush]). *)

val of_code : int -> t option
(** Inverse of {!to_code}; [None] for any other byte. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val apply :
  t ->
  mem:Hw.Physmem.t ->
  cache:Hw.Cache.t ->
  counter:Hw.Cycles.counter ->
  Hw.Addr.Range.t ->
  unit
(** Execute the clean-up on a memory range, charging the simulated cost
    of the zeroing stores and cache flushes. *)

val apply_all :
  mem:Hw.Physmem.t ->
  cache:Hw.Cache.t ->
  counter:Hw.Cycles.counter ->
  (Hw.Addr.Range.t * t) list ->
  unit
(** Execute a whole call's clean-ups, cleaning each byte once: zero the
    union of the zeroing ranges, then flush the union of the flushing
    ranges, charging per line of those unions. Memory, resident lines
    and taint end exactly as {!apply} on every pair in turn leaves
    them, since zeroing and flushing are idempotent and touch disjoint
    state; only the repeated work goes. *)
