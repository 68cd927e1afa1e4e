(** TELF: the binary image format libtyche loads (the repo's ELF
    stand-in, §4.2).

    An image is a set of named segments plus an entry point. Each
    segment carries the attributes the paper's manifest describes:
    which privilege ring it should run in, whether it is confidential
    (granted exclusively to the new domain) or shared (the creator keeps
    access), and whether its content is part of the attestation.

    Images serialize to a self-contained byte string ({!to_bytes} /
    {!of_bytes}) so the loader genuinely parses a binary rather than a
    data structure. *)

type visibility =
  | Confidential (** Granted exclusively; creator loses access. *)
  | Shared (** Shared with the creator (refcount 2). *)

type segment = {
  seg_name : string; (** e.g. ".text", ".data", ".shared". *)
  vaddr : int; (** Offset from the image's load base; page-aligned. *)
  data : string; (** Raw content; zero-padded to a page at load. *)
  perm : Hw.Perm.t;
  ring : int; (** Privilege ring the manifest assigns (0 or 3). *)
  visibility : visibility;
  measured : bool;
}

type t = {
  image_name : string;
  segments : segment list; (** In ascending [vaddr] order. *)
  entry : int; (** Entry point, as an offset from the load base. *)
}

val size : t -> int
(** Total footprint in bytes from base to the end of the last segment,
    page-aligned. *)

val segment_range : segment -> at:Hw.Addr.t -> Hw.Addr.Range.t
(** Physical range the segment occupies when loaded at [at]
    (page-aligned length). *)

val validate : t -> (unit, string) result
(** Check: segments sorted, page-aligned, non-overlapping; entry falls
    inside an executable segment; names non-empty. *)

val to_bytes : t -> string
val of_bytes : string -> (t, string) result
(** Round-trip serialization ("TELF" magic, version 1). *)

val find_segment : t -> string -> segment option

(** Convenience constructor for images; validates on the way out. *)
module Builder : sig
  type image := t
  type t

  val create : name:string -> t

  val add_segment :
    t ->
    name:string ->
    vaddr:int ->
    data:string ->
    perm:Hw.Perm.t ->
    ?ring:int ->
    ?visibility:visibility ->
    ?measured:bool ->
    unit ->
    t
  (** Defaults: ring 3, [Confidential], [measured] true for executable
      segments and false otherwise. Returns an extended builder. *)

  val set_entry : t -> int -> t

  val finish : t -> (image, string) result
end
