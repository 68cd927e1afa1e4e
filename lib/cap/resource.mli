(** Physical resources: the name space capabilities operate on.

    The paper's monitor manages exactly three resource kinds — physical
    memory, CPU cores and PCI devices (§3.1) — and deliberately names
    them *physically*, so sharing and exclusivity can be reasoned about
    without aliasing (§3.2). *)

type t =
  | Memory of Hw.Addr.Range.t (** A physical-memory range. *)
  | Cpu_core of int (** A core id. *)
  | Device of int (** A PCI function, by packed BDF. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val overlaps : t -> t -> bool
(** Two resources overlap when granting both could alias hardware:
    intersecting memory ranges, the same core, or the same device. *)

val memory_range : t -> Hw.Addr.Range.t option
val is_memory : t -> bool

