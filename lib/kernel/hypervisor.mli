(** A KVM-style hypervisor with a Tyche backend (§4.2: "extending Linux
    KVM with a Tyche backend for confidential VMs").

    The hypervisor is ordinary domain-0 code: it allocates guest memory,
    launches confidential VMs through libtyche, schedules vCPUs and
    services virtio-style I/O rings. What the Tyche backend changes is
    what the hypervisor *cannot* do: guest RAM is granted away, so the
    host services console and disk requests purely through each guest's
    explicitly shared ring page — it can multiplex guests it cannot
    read, which is the paper's confidential-VM story.

    The ring layout in the guest's [Shared] segment:
    {v
      +0   u32 request length  (0 = ring empty)
      +4   u8  opcode          (1 = console write, 2 = disk read, 3 = disk write)
      +8   u64 disk offset
      +16  u32 payload length
      +20  payload bytes...
      +2048 response area: u32 length, then bytes
    v} *)

type t
type vm_id = int

type vm_state = Running | Halted

(** What a guest vCPU can do during one scheduling quantum. All memory
    access happens while the guest domain is entered on the core, so
    every load/store is hardware-checked against the guest's EPT. *)
type guest_ctx = {
  vm : vm_id;
  ram : Hw.Addr.Range.t; (** The guest's private RAM. *)
  read : Hw.Addr.t -> int -> (string, string) result;
  write : Hw.Addr.t -> string -> (unit, string) result;
  console : string -> unit; (** Enqueue a console write on the ring. *)
  disk_read : off:int -> len:int -> (string, string) result;
      (** Synchronous: rings the host and blocks for the reply. *)
  disk_write : off:int -> string -> (unit, string) result;
}

type guest_program = guest_ctx -> [ `Yield | `Halt ]

val create : Tyche.Monitor.t -> alloc:Alloc.t -> host_core:int -> disk_size:int -> t
(** A hypervisor running on [host_core] with a [disk_size]-byte backing
    store (the host-side block device). *)

val launch :
  t ->
  name:string ->
  image:Image.t ->
  ram_bytes:int ->
  vcpu_cores:int list ->
  program:guest_program ->
  (vm_id, string) result
(** Allocate, load and seal a confidential VM. The image must contain a
    [Shared] segment named ".virtio" of at least one page. *)

val run : t -> ?max_quanta:int -> unit -> int
(** Round-robin the running guests' vCPUs: enter the guest, run one
    program quantum, exit, service its ring. Returns quanta consumed. *)

val state : t -> vm_id -> vm_state option
val console_output : t -> vm_id -> string list
(** Console lines the host collected from the guest's ring. *)

val disk_contents : t -> off:int -> len:int -> string
(** Host-side view of the backing store (for tests). *)

val host_reads_guest_ram : t -> vm_id -> (unit, string) result
(** The attack the design must block: the host dereferencing guest RAM.
    Returns [Error] when (correctly) denied by the EPT. *)

val destroy : t -> vm_id -> (unit, string) result
(** Tear the VM down; its RAM is scrubbed by the revocation policy and
    the memory returns to the allocator. *)

val guest_ram : t -> vm_id -> Hw.Addr.Range.t option
val vm_domain : t -> vm_id -> Tyche.Domain.id option
