(** The x86_64 VT-x enforcement backend (§4).

    Per-domain EPTs enforce memory isolation, the IOMMU confines DMA to
    the memory the device's holders hold, and transitions take either the VMFUNC
    fast path (an EPTP switch with no VM exit, ~134 cycles) when the
    target's EPT is pre-registered in the source's EPTP list, or the
    VMCALL trap path through the monitor (~1,300 cycles) otherwise —
    the cost structure behind claim C7. A device's DMA windows are the
    union of what its holders' EPTs map; the journal, the DMA
    mirroring, the detach taint and the staged clean-ups are
    {!Tyche.Hw_txn}'s, shared with {!Backend_riscv}.

    A trap between two domains with no flush policy registers the pair
    in both directions, since a call implies its return. A destroy frees
    the dead EPT's slot in every list; lookups are O(1). A list whose 512
    slots all hold live EPTs keeps trapping: nothing is evicted (a2).

    Memory is mapped guest-physical = host-physical (identity): the
    monitor deals in physical names (§3.2), and domains see the machine's
    real address space minus what they don't own. *)

(** How a detach's stale translations are invalidated. Inside a
    transaction the invalidation waits for commit and covers the whole
    call; a rollback invalidates nothing.

    Either way only domains that may still be cached are invalidated: a
    domain no core entered since its last flush, and none was running
    at that flush — a fleet proxy, a domain that never ran — holds no
    translation, so its detaches cost no invalidation, and a call that
    detaches only from such domains flushes nothing. *)
type tlb_strategy =
  | Full_shootdown (** Flush the TLB of every core by IPI, once per
                       committed call that leaves a cached domain stale
                       (safe default). *)
  | Asid_flush (** Flush only the stale cached domains' tagged entries,
                   once per domain per call — ablation a4. *)

val create :
  Hw.Machine.t ->
  ?tlb_strategy:tlb_strategy ->
  ?mktme:Hw.Mktme.t ->
  unit ->
  Tyche.Backend_intf.t
(** Build the backend record for this machine.

    When [mktme] is supplied, the backend assigns one memory-encryption
    key per confidential domain (enclaves and confidential VMs) and
    protects their attached memory, so a physical attacker snooping the
    bus ({!Hw.Mktme.snoop}) sees only ciphertext (§4.2). Memory shared
    back out of a confidential domain reverts to plaintext-on-bus, as
    cross-key sharing would require. Key slots are finite: once
    exhausted, further domains run unencrypted (as on real parts).
    @raise Invalid_argument if the machine is not x86_64. *)

(** {2 Introspection for tests and benches} *)

val ept_of : Tyche.Backend_intf.t -> Tyche.Domain.id -> Hw.Ept.t option
(** The EPT the backend maintains for a domain (None if unknown). Only
    valid on backends created by this module.
    @raise Invalid_argument on a foreign backend. *)

val eptp_registered :
  Tyche.Backend_intf.t -> from_:Tyche.Domain.id -> to_:Tyche.Domain.id -> bool
(** Whether a VMFUNC fast path currently exists from one domain to the
    other. *)

val fast_transitions : Tyche.Backend_intf.t -> int
val trap_transitions : Tyche.Backend_intf.t -> int
