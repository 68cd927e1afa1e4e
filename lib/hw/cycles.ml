type counter = { mutable cycles : int }

let create () = { cycles = 0 }
let read c = c.cycles
let reset c = c.cycles <- 0
let charge c n = c.cycles <- c.cycles + n

module Cost = struct
  let vmcall_roundtrip = 1300
  let vmfunc = 134
  let syscall_roundtrip = 150
  let process_context_switch = 3000
  let sgx_eenter = 3800
  let sgx_eexit = 3300
  let sgx_ecreate = 10000
  let sgx_eadd_page = 12000
  let sgx_einit = 50000
  let process_fork = 250000
  let pipe_byte_copy = 1
  let ecall_machine_mode = 400
  let pmp_entry_write = 20
  let ept_map_page = 80
  let ept_unmap_page = 60
  let iommu_table_update = 120
  let tlb_flush_full = 500
  let tlb_flush_asid = 120
  let tlb_shootdown_ipi = 1500
  let cache_flush_line = 40
  let cache_flush_full = 20000
  let zero_cache_line = 10
  let page_table_walk = 30
  let measurement_per_page = 4200
  let interrupt_delivery = 600
  let interrupt_remap_lookup = 90
end

let charged c f =
  let before = c.cycles in
  let result = f () in
  (result, c.cycles - before)
