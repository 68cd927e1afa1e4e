(** CPU cores.

    Each core tracks its architecture-specific privilege state and the
    translation context it is currently running under (the active EPT on
    x86, the per-hart PMP file on RISC-V). The monitor's backends mutate
    this state on domain transitions; memory accesses performed "by" the
    core are checked against it. *)

type arch = X86_64 | Riscv64

type x86_mode = {
  ring : int; (** 0-3 *)
  vmx_root : bool; (** true = the monitor's VMX-root context *)
}

type riscv_mode = M | S | U

type mode = X86 of x86_mode | Riscv of riscv_mode

type t

val create : arch:arch -> id:int -> counter:Cycles.counter -> t
val id : t -> int
val arch : t -> arch

val mode : t -> mode
val set_mode : t -> mode -> unit
(** @raise Invalid_argument if the mode does not match the core's arch. *)

val pmp : t -> Pmp.t
(** The core's PMP file. @raise Invalid_argument on an x86 core. *)

val active_ept : t -> Ept.t option
val set_active_ept : t -> Ept.t option -> unit
(** @raise Invalid_argument on a RISC-V core. *)

val active_page_table : t -> Page_table.t option
val set_active_page_table : t -> Page_table.t option -> unit
(** First-level (in-domain) translation, installed by the software
    running inside the domain (e.g. the kernel's per-process tables).
    When set, {!load}/{!store} translate vaddr -> guest-physical here
    before the domain-boundary check. The monitor neither reads nor
    writes this — it is the domain's own business (§3.1). *)

val asid : t -> int
val set_asid : t -> int -> unit
(** The address-space tag used for TLB entries (the VPID on x86). *)

val get_reg : t -> int -> int
val set_reg : t -> int -> int -> unit
(** General-purpose register access for the code currently running on
    the core. @raise Invalid_argument on a bad index. *)

val save_regs : t -> int array
(** Snapshot the register file (monitor context-switch path). *)

val load_regs : t -> int array -> unit
(** Replace the register file. @raise Invalid_argument on wrong size. *)

val clear_regs : t -> unit
(** Zero every register (scrubbing before entering a distrustful
    domain). *)

val load : t -> Physmem.t -> tlb:Tlb.t -> cache:Cache.t -> Addr.t -> int
(** Perform a checked 1-byte load at a (guest-)physical address using
    the core's current translation context. Raises {!Ept.Violation} or
    {!Pmp.Fault} when the access is not permitted. Fills the TLB and
    touches the cache, so micro-architectural effects are observable. *)

val store : t -> Physmem.t -> tlb:Tlb.t -> cache:Cache.t -> Addr.t -> int -> unit
(** Checked 1-byte store; see {!load}. *)

val pp_mode : Format.formatter -> mode -> unit
