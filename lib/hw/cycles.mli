(** Cycle-cost accounting for the simulated machine.

    The paper's performance claims (C7: ~100-cycle VMFUNC transitions vs
    ~1000-cycle exits vs far costlier process/SGX switches) are about the
    *hardware* cost of crossing protection boundaries. Since we simulate
    the hardware, every privileged operation charges a cost to a global
    counter; benchmarks report these simulated cycles alongside the real
    wall-clock cost of the monitor's bookkeeping logic.

    Costs are calibrated from published measurements: VT-x transition
    costs from Intel SDM-era studies and the Hodor/ERIM papers (VMFUNC
    ~134 cycles), SGX transition costs from SGX microbenchmark literature
    (~7,000 cycles round trip), context-switch costs from lmbench-style
    measurements. Absolute values matter less than ratios. *)

type counter

val create : unit -> counter
val read : counter -> int
val reset : counter -> unit
val charge : counter -> int -> unit

(** Calibrated event costs, in cycles. [vmcall_roundtrip] covers VM exit +
    handler entry + VM resume; [vmfunc] is an EPTP switch without a VM
    exit; [ecall_machine_mode] is a RISC-V U/S to M-mode trap and
    return; [tlb_shootdown_ipi] is
    charged per remote core; [cache_flush_full] is a WBINVD-style full
    writeback-invalidate; [zero_cache_line] zeroes 64 bytes of memory;
    [measurement_per_page] hashes one 4 KiB page for attestation. *)
module Cost : sig
  val vmcall_roundtrip : int
  val vmfunc : int
  val syscall_roundtrip : int
  val process_context_switch : int
  val sgx_eenter : int
  val sgx_eexit : int
  val sgx_ecreate : int
  val sgx_eadd_page : int
  val sgx_einit : int
  val process_fork : int
  val pipe_byte_copy : int
  val ecall_machine_mode : int
  val pmp_entry_write : int
  val ept_map_page : int
  val ept_unmap_page : int
  val iommu_table_update : int
  val tlb_flush_full : int
  val tlb_flush_asid : int
  val tlb_shootdown_ipi : int
  val cache_flush_line : int
  val cache_flush_full : int
  val zero_cache_line : int
  val page_table_walk : int
  val measurement_per_page : int
  val interrupt_delivery : int
  val interrupt_remap_lookup : int
end

val charged : counter -> (unit -> 'a) -> 'a * int
(** [charged c f] runs [f] and returns its result together with the
    cycles charged to [c] during the call. *)
