(** Platform-backend interface (§3.3, §4).

    Tyche separates the platform-independent capability model from a
    platform-specific backend that programs real access-control hardware.
    A backend is a record of operations the monitor invokes:
    capability-tree {!Cap.Captree.effect}s to apply, domain lifecycle
    notifications, and domain transitions. The two implementations are
    {!Backend_x86} (VT-x: per-domain EPTs, VMFUNC fast path) and
    {!Backend_riscv} (M-mode: per-hart PMP programming). Both build their
    journal, IOMMU mirroring and clean-up staging on {!Hw_txn}. *)

type transition_path =
  | Fast_switch (** Exit-less switch (VMFUNC EPTP switch on x86). *)
  | Trap_roundtrip (** Through the monitor (VMCALL / ecall). *)

val pp_transition_path : Format.formatter -> transition_path -> unit

type t = {
  backend_name : string;
  domain_created : Domain.t -> unit;
  (** Allocate per-domain enforcement state (an EPT, a PMP layout). *)
  domain_destroyed : Domain.t -> unit;
  apply_effect : Cap.Captree.effect -> (unit, string) result;
  (** Make hardware match a capability-tree change. [Detach] must leave
      the resource unreachable (including TLB invalidation, which a
      backend may defer to {!txn_commit} inside a transaction) and run
      the clean-up policy. A device's DMA windows are the union of the
      memory its holders hold, each at [rw ∩ perm]: a detach from one
      holder keeps what the others hold. *)
  validate_attach : Domain.t -> Cap.Resource.t -> (unit, string) result;
  (** Pre-flight check before the monitor mutates the tree: the PMP
      backend rejects layouts that exceed the entry budget (C8); the
      EPT backend accepts anything page-aligned. *)
  transition :
    core:Hw.Cpu.t -> from_:Domain.t -> to_:Domain.t -> flush_microarch:bool ->
    (transition_path, string) result;
  (** Switch the core's translation context between domains, charging
      the simulated hardware cost; returns which path was taken, or
      [Error] when hardware programming fails (PMP reprogramming over
      budget, an injected fault) — in which case the core's context must
      be left on [from_]. *)
  launch : core:Hw.Cpu.t -> Domain.t -> unit;
  (** Boot-time entry of the initial domain on a core (no from-context,
      no cost accounting). *)
  domain_reaches : Domain.t -> Hw.Addr.Range.t -> bool;
  (** Ground truth from the hardware's point of view: can this domain
      currently access any byte of the range? The judiciary compares
      this against the capability tree. *)
  domain_encrypted : Domain.t -> bool;
  (** Whether the domain's confidential memory currently sits under a
      private memory-encryption key (MKTME/SEV-style) — the physical-
      attack posture attestations expose to remote verifiers. *)
  stale_switches : unit -> (Domain.id * int) list;
  (** Per domain, how many of its exit-less switch entries name no live
      domain's translation context: x86 EPTP-list slots holding a
      destroyed domain's EPT (RISC-V has none). Domains with none are
      omitted; the list must be empty between calls. *)
  txn_begin : unit -> unit;
  (** Open a hardware transaction: until commit/rollback, every effect
      the backend applies journals an undo, and destructive clean-ups
      (memory zeroing) are deferred. The monitor brackets each mutating
      API call with these, mirroring {!Cap.Captree.txn_begin}. *)
  txn_commit : unit -> unit;
  (** Discard the journal, invalidate the translations the transaction's
      detaches left stale, and run the deferred destructive clean-ups. *)
  txn_rollback : unit -> unit;
  (** Undo every journaled hardware effect (newest first) and drop the
      deferred clean-ups and invalidations; hardware state must equal
      the state at [txn_begin]. Runs with fault injection suspended. *)
}
