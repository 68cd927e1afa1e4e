(** The hardware transaction and DMA path both backends share (§4).

    A backend keeps only its ISA's enforcement hardware: the EPTs of
    {!Backend_x86}, the PMP files of {!Backend_riscv}. Everything else
    it does to the machine lives here, once:
    - the undo journal a {!Backend_intf.t.txn_begin} opens, with the
      destructive clean-ups it stages;
    - each domain's devices and their IOMMU windows. A device's windows
      are the union of the memory its holders hold, each at
      [rw ∩ perm];
    - the page and line taint a detach leaves and its clean-up;
    - the line taint and cache flush of a flushing transition.

    While a transaction is open every mutation prepends its inverse to
    the journal. Call sites guard with [if journaling t] so the
    fault-free path allocates no closure. *)

type t

val create : Hw.Machine.t -> backend:int -> t
(** [backend] is the {!Obs.intern}ed name the device spans carry. *)

val journaling : t -> bool
val record : t -> (unit -> unit) -> unit
(** Prepend an undo to the open transaction's journal. *)

val txn_begin : t -> unit
(** @raise Invalid_argument if a transaction is already open. *)

val txn_commit : t -> (unit -> unit) -> unit
(** Drop the journal, run the hook, then run every staged clean-up
    through one {!Cap.Revocation.apply_all}: a byte that several of the
    call's detaches staged is zeroed once, and a line flushed once. *)

val txn_rollback : t -> unit
(** Run the journal newest first with fault injection suspended, and
    drop the staged clean-ups. *)

val fault_error : exn -> string
(** Describe a {!Fault.Injected}; any other exception is re-raised. *)

val apply_effect :
  t ->
  holdings:(Domain.id -> (Hw.Addr.Range.t * Hw.Perm.t) list) ->
  map:(Domain.id -> Hw.Addr.Range.t -> Hw.Perm.t -> (unit, string) result) ->
  unmap:(Domain.id -> Hw.Addr.Range.t -> (unit, string) result) ->
  program:(Domain.id -> (unit, string) result) ->
  Cap.Captree.effect ->
  (unit, string) result
(** Apply one effect; an injected fault becomes [Error]. The backend
    supplies [holdings] (the memory it maps for a domain), [map] and
    [unmap] (its own tables, journaled) and [program] (load a changed
    domain into the cores running it). A memory attach runs [map], the
    DMA grants, then [program]. A memory detach taints the residue,
    runs [unmap], revokes the range from the domain's devices and
    re-grants what their other holders hold, runs [program], then
    stages its clean-up as a [(range, policy)] pair for {!txn_commit}
    (nothing for [Keep]; outside a transaction it runs at once). A
    device detach re-grants what the remaining holders hold. Build the
    closure once: each partial application allocates. *)

val flush_lines : t -> Domain.id -> unit
(** A flushing transition out of the domain: taint its resident lines
    guarded, then flush the cache. *)

val domain_destroyed : t -> Domain.id -> unit
(** Forget the domain's devices, journaled. *)
