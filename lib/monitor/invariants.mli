(** System-wide invariant checking: the judiciary's local arm (§3.4).

    The verifier trusts the monitor because its implementation is meant
    to be inspected and verified; these checks are the executable form of
    the properties a verification effort would prove. Tests run them
    after every scenario, and the malicious-OS suite (E12) shows they
    catch violations a commodity system would silently allow. *)

type violation = {
  rule : string; (** Short rule identifier, e.g. "hw-matches-tree". *)
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

val check_all : Monitor.t -> violation list
(** Run every invariant; empty list = clean system. *)

val check_tree : Monitor.t -> violation list
(** The capability tree's own structural invariants. *)

val check_index : Monitor.t -> violation list
(** The tree's incremental indexes (per-domain caps, segment store,
    root intervals) agree with their full-scan reference
    implementations. *)

val check_hardware_matches_tree : Monitor.t -> violation list
(** For every domain and every byte of the Fig. 4 region map: the
    backend reaches a range iff the tree says the domain holds it.
    Catches both leaks (hardware maps more than the tree granted) and
    lost access. *)

val check_dma : Monitor.t -> violation list
(** For every device on the machine: its IOMMU windows are the union of
    the memory its holders hold. A region-map segment some holder of the
    device holds must be fully reachable by DMA, and no window may reach
    a byte no holder holds. *)

val check_sealed_unextended : Monitor.t -> violation list
(** Sealed domains' *exclusively held* measured regions (root/grant
    lineage — no foreign share anywhere up the chain) must only be
    reachable by tree descendants of the sealed domain's capabilities.
    Regions the domain itself received via a foreign share were never
    exclusive, so no guarantee attaches. Audits the same predicate
    {!Monitor.seal} enforces ({!Monitor.measured_exposures}). *)

val check_no_stale_tlb : Monitor.t -> violation list
(** No TLB entry translates into memory its ASID's domain no longer
    holds — revocations must have shot down stale translations. *)

val check_refcounts : Monitor.t -> violation list
(** The region map's holder sets are consistent with per-resource
    refcounts (the eager/recomputed agreement of ablation a1). *)

val check_remote : Monitor.t -> violation list
(** Remote proxy domains (standing in for peer machines in cross-machine
    delegation) stay inert: never sealed, no entry point, never
    scheduled on a core. *)

val check_switch_live : Monitor.t -> violation list
(** No domain can switch without an exit into a destroyed domain: every
    exit-less switch entry the backend keeps names a live domain's
    translation context ({!Backend_intf.t.stale_switches}). *)
