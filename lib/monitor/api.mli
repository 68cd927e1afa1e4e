(** The monitor's narrow call interface (§3.2), as data.

    Real deployments reach the monitor through a register-level ABI
    (VMCALL on x86, ecall on RISC-V). This module defines that ABI: a
    first-class call type, a byte-level wire encoding, and a dispatcher.
    Having the whole API as one small variant is the "microkernel-like,
    minimal and flexible" surface the paper argues for — it is also what
    a verification effort would specify, and what the fuzz tests drive.

    The dispatcher never raises on any input: every malformed or
    unauthorized call returns an error value, which the property tests
    check against arbitrary call sequences. *)

(** The call type, its records and its wire format, from {!Op}.

    {!Op.encode} writes one {!Op.record} — a call plus who issued it —
    as an opcode byte followed by varint operands ({!Persist.Wire}),
    byte for byte the payload the write-ahead log stores for the same
    call.
    {!Op.decode} is the total parser for it. *)
include module type of struct
  include Op
end

type response = (result_value, Monitor.error) result

val pp_response : Format.formatter -> response -> unit

val dispatch : Monitor.t -> caller:Domain.id -> core:int -> call -> response
(** Execute one call on behalf of [caller] (as identified by the
    trapping hardware on [core]) through {!Monitor.exec}. Total: no
    exceptions escape. Every dispatch runs inside a balanced
    [Obs.Profile.span] named ["api." ^ op_name call], tagged with the
    caller domain and the backend name. *)
