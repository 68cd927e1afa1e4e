(** Device drivers, trusted or sandboxed (E11).

    A commodity kernel runs drivers with full kernel privilege: a buggy
    or malicious driver can program its device to DMA anywhere the
    kernel can reach. With the isolation monitor, the kernel *grants*
    the device into a sandbox domain together with a small DMA arena;
    the IOMMU then confines the device to that arena, and a wild DMA
    faults instead of corrupting the kernel.

    The driver "logic" is deliberately tiny (copy a request into the DMA
    buffer, have the device write its response): what is under test is
    the reachable-memory set, not the driver. *)

type mode = Trusted | Sandboxed

val pp_mode : Format.formatter -> mode -> unit

type t

val name : t -> string
val mode : t -> mode
val device : t -> Hw.Device.t
val sandbox_domain : t -> Tyche.Domain.id option

val attach_trusted :
  Tyche.Monitor.t ->
  alloc:Alloc.t ->
  device:Hw.Device.t ->
  (t, string) result
(** Commodity-style attachment: the device stays with domain 0, whose
    entire memory is its DMA window. A buffer is still allocated for
    normal operation. *)

val attach_sandboxed :
  Tyche.Monitor.t ->
  alloc:Alloc.t ->
  core:int ->
  device:Hw.Device.t ->
  driver_image:Image.t ->
  (t, string) result
(** Monitor-backed attachment: loads [driver_image] as a sandbox,
    allocates a DMA arena shared with the sandbox, and *grants* the
    device capability to the sandbox — moving its IOMMU context. *)

val submit :
  t -> Tyche.Monitor.t -> core:int -> data:string -> (string, string) result
(** Normal request path: the device DMA-reads the request from the
    buffer and DMA-writes a response (here: the data reversed) back.
    Exercises the IOMMU on the legitimate path. *)

val rogue_dma :
  t -> Tyche.Monitor.t -> target:Hw.Addr.t -> (unit, string) result
(** Fault injection: the driver programs its device to write 16 junk
    bytes at an arbitrary physical address. Returns [Ok ()] if the DMA
    *landed* (the corruption happened) and [Error _] if the IOMMU
    blocked it — so the caller asserts [Error] for sandboxed drivers
    and observes successful corruption for trusted ones. *)

val detach :
  t -> Tyche.Monitor.t -> alloc:Alloc.t -> (unit, string) result
(** Tear the driver down, returning the buffer to the allocator and —
    for sandboxed drivers — destroying the sandbox domain (which
    returns the device capability to the kernel). *)
