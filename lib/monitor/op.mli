(** The monitor's calls as data, and the one codec for them.

    {!call} is the whole narrow interface (§3.2) as a first-class value:
    {!Api.dispatch} executes it, the property tests fuzz it, and the
    write-ahead log stores it. A logged {!record} adds only what replay
    cannot recompute — who issued the call, and the digest a [Seal]
    measured from memory contents that are not durable. *)

type call =
  | Create_domain of { name : string; kind : Domain.kind }
  | Set_entry_point of { domain : Domain.id; entry : Hw.Addr.t }
  | Set_flush_policy of { domain : Domain.id; flush : bool }
  | Mark_measured of { domain : Domain.id; range : Hw.Addr.Range.t }
  | Seal of { domain : Domain.id }
  | Destroy of { domain : Domain.id }
  | Share of {
      cap : Cap.Captree.cap_id;
      to_ : Domain.id;
      rights : Cap.Rights.t;
      cleanup : Cap.Revocation.t;
      subrange : Hw.Addr.Range.t option;
    }
  | Grant of {
      cap : Cap.Captree.cap_id;
      to_ : Domain.id;
      rights : Cap.Rights.t;
      cleanup : Cap.Revocation.t;
    }
  | Split of { cap : Cap.Captree.cap_id; at : Hw.Addr.t }
  | Carve of { cap : Cap.Captree.cap_id; subrange : Hw.Addr.Range.t }
  | Revoke of { cap : Cap.Captree.cap_id }
  | Enumerate (** List the caller's own capabilities. *)
  | Attest of { domain : Domain.id; nonce : string }
  | Call of { target : Domain.id }
  | Return

type result_value =
  | R_unit
  | R_domain of Domain.id
  | R_cap of Cap.Captree.cap_id
  | R_cap_pair of Cap.Captree.cap_id * Cap.Captree.cap_id
  | R_caps of Cap.Captree.cap_id list
  | R_attestation of Attestation.t
  | R_path of Backend_intf.transition_path

val pp_call : Format.formatter -> call -> unit

val op_name : call -> string
(** Stable lower-case operation name ("share", "revoke", ...), used as
    the span/metric key suffix for per-op observability. *)

(** {2 Records and their wire format} *)

type record =
  | Issued of {
      by : int;
          (** The calling domain — or, for [Call] and [Return], the core:
              whoever is current on it is the caller. *)
      call : call;
      digest : string;
          (** [Seal] only: the 32-byte digest it measured. Empty in a
              request and for every other call. *)
    }
  | Evicted of { core : int }
      (** A timer tick on [core], logged because it may have evicted the
          domain running there (a single monitor logs only the ticks that
          did). Replay re-runs the tick; it is not a call anyone can
          issue. *)

val issued : int -> call -> record
(** [issued by call] is [Issued] with no digest: the record of every
    call but a logged [Seal]. *)

val encode : record -> string
(** Opcode byte, then [by], then the operands, all on {!Persist.Wire}:
    zigzag varint integers, varint-prefixed strings, one byte for a
    kind, a clean-up policy or a rights set, a flag byte before an
    optional subrange. Opcodes 1–11 follow the call order above,
    [Call] is 12, [Return] 13, an eviction 14 (with the core and
    nothing else), [Enumerate] 15 and [Attest] 16. These bytes are the
    write-ahead log's payloads, so they must never change. *)

val decode : string -> (record, string) result
(** Total parser: never raises. Rejects truncated input, trailing bytes,
    negative integers, empty ranges, unknown opcodes, unknown kind or
    clean-up codes, rights with a reserved bit set, and a seal digest
    that is neither empty nor 32 bytes. *)
