(** Extended page tables (second-level address translation).

    One {!t} models the EPT of a single trust domain on the x86 backend:
    a map from guest-physical pages to host-physical pages with
    permissions. The monitor programs these structures; the CPU model
    consults them on every access. An {!Eptp_list} models the VMFUNC
    EPTP-switching list (up to 512 entries) that enables exit-less domain
    transitions — the hardware feature behind the paper's "fast (100
    cycles) domain transitions using VMFUNC" claim. *)

type t

exception Violation of { gpa : Addr.t; access : [ `Read | `Write | `Exec ] }
(** EPT violation: the access would trap to the monitor on real hardware. *)

val create : counter:Cycles.counter -> t

val map_page : t -> gpa:Addr.t -> hpa:Addr.t -> Perm.t -> unit
(** Map one 4 KiB page. Remapping an existing gpa overwrites it.
    @raise Invalid_argument if either address is not page-aligned. *)

val map_range : t -> gpa:Addr.t -> Addr.Range.t -> Perm.t -> unit
(** Identity-offset map of a host-physical range starting at guest
    address [gpa]. The range must be page-aligned. *)

val unmap_page : t -> gpa:Addr.t -> unit
val unmap_hpa_range : t -> Addr.Range.t -> int
(** Remove every mapping whose target lies in the host range; returns the
    number of pages unmapped. Used on revocation. Costs O(pages in the
    range) — a reverse index answers it — and charges one
    [ept_unmap_page] (and one [ept.unmap] fault-point hit) per page
    actually unmapped. *)

val translate : t -> gpa:Addr.t -> access:[ `Read | `Write | `Exec ] -> Addr.t
(** Translate a guest-physical address, checking permissions.
    @raise Violation on missing mapping or insufficient rights. *)

val entry_at : t -> gpa:Addr.t -> (Addr.t * Perm.t) option
(** The mapping (hpa, perm) of the page containing [gpa], if any —
    captured by the backends' undo journals before an overwrite. *)

val mappings_to : t -> Addr.Range.t -> (Addr.t * Addr.t * Perm.t) list
(** [(gpa, hpa, perm)] for every mapping whose target lies in the host
    range — exactly the set {!unmap_hpa_range} would remove, captured
    up front so a faulted detach can be rolled back. *)

val mapped_pages : t -> int
val hpa_reachable : t -> Addr.t -> Perm.t
(** Union of permissions with which any gpa maps to the page containing
    this host address; {!Perm.none} if unreachable. Lets invariant checks
    ask "can this domain touch that memory at all?". *)

val iter_mappings : t -> (gpa:Addr.t -> hpa:Addr.t -> Perm.t -> unit) -> unit

val reaches_hpa_range : t -> Addr.Range.t -> bool
(** Whether any mapping targets a page overlapping the host range
    (single pass over the table, unlike per-page {!hpa_reachable}). *)

(** VMFUNC EPTP list: a bounded table of EPTs between which a domain may
    switch without a VM exit. A slot table: an index from EPT to slot
    answers {!slot_of}, {!register} and {!unregister} in O(1), and a
    vacated slot is reused before a never-used one. Nothing is ever
    evicted: a list whose 512 slots all hold EPTs stays full until one
    is unregistered. *)
module Eptp_list : sig
  type ept := t
  type t

  val max_entries : int (** 512, per Intel SDM. *)

  val create : unit -> t
  val register : t -> ept -> int option
  (** The EPT's slot: its existing one, else the most recently vacated
      slot, else the lowest never-used one; [None] if all 512 are taken. *)

  val unregister : t -> ept -> bool
  (** Vacate the EPT's slot, making it the next one {!register} reuses;
      [false] if the EPT is not in the list. *)

  val get : t -> int -> ept option
  val slot_of : t -> ept -> int option
  val count : t -> int
  (** Slots that currently hold an EPT. *)
end
