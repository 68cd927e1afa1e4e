(** The RISC-V machine-mode enforcement backend (§4).

    Tyche runs in M-mode and programs each hart's PMP file on every
    domain transition: the entries describe exactly the memory the
    incoming domain holds, so S/U-mode code can touch nothing else.
    PMP entry 0 is locked over the monitor's own image at creation
    (self-protection even against M-mode re-entry). A device's DMA
    windows are the union of its holders' layouts; the journal, the DMA
    mirroring, the detach taint and the staged clean-ups are
    {!Tyche.Hw_txn}'s, shared with {!Backend_x86}.

    PMP files have a fixed number of entries, so — unlike the EPT
    backend — this backend *rejects* capability layouts that do not fit
    (claim C8): [validate_attach] simulates the resulting layout and
    refuses attachments that would exceed the per-domain entry budget.
    The [Merge_adjacent] allocation strategy folds contiguous ranges
    into one entry before counting (ablation a3); [First_fit] counts
    every range separately. *)

type alloc_strategy = Merge_adjacent | First_fit

val create :
  Hw.Machine.t ->
  monitor_range:Hw.Addr.Range.t ->
  ?alloc_strategy:alloc_strategy ->
  unit ->
  Tyche.Backend_intf.t
(** @raise Invalid_argument if the machine is not RISC-V. *)

val usable_entries : Hw.Machine.t -> int
(** Entries available for domain state on this machine's harts (total
    minus the locked monitor entry). *)

val layout_of :
  Tyche.Backend_intf.t -> Tyche.Domain.id -> (Hw.Addr.Range.t * Hw.Perm.t) list
(** The PMP segment layout the backend would program for a domain
    (post-merge), in address order.
    @raise Invalid_argument on a foreign backend. *)

val transitions : Tyche.Backend_intf.t -> int
val pmp_reprogram_writes : Tyche.Backend_intf.t -> int
(** Total PMP register writes performed by transitions so far. *)
