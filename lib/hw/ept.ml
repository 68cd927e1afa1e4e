type entry = { hpa : Addr.t; perm : Perm.t }

type t = {
  pages : (int, entry) Hashtbl.t; (* key: gpa page index *)
  (* Reverse index for the non-identity mappings only: hpa page index ->
     the gpa page indices that map it. An identity mapping (gpa = hpa,
     all the backends install) is answered by [pages] itself, so the
     index stays empty on the common path and costs no memory, while
     host-range queries never fold the whole table. *)
  aliases : (int, int list) Hashtbl.t;
  counter : Cycles.counter;
  id : int;
}

exception Violation of { gpa : Addr.t; access : [ `Read | `Write | `Exec ] }

(* Injection points: a page-table write that fails mid-update. *)
let map_fault = Fault.register "ept.map"
let unmap_fault = Fault.register "ept.unmap"

let next_id = ref 0

let create ~counter =
  incr next_id;
  { pages = Hashtbl.create 64; aliases = Hashtbl.create 8; counter; id = !next_id }

let page_index a = a / Addr.page_size

let alias_add t ~gpa_idx ~hpa_idx =
  if gpa_idx <> hpa_idx then
    Hashtbl.replace t.aliases hpa_idx
      (gpa_idx :: Option.value ~default:[] (Hashtbl.find_opt t.aliases hpa_idx))

let alias_remove t ~gpa_idx ~hpa_idx =
  if gpa_idx <> hpa_idx then
    match Hashtbl.find_opt t.aliases hpa_idx with
    | None -> ()
    | Some l -> (
      match List.filter (fun g -> g <> gpa_idx) l with
      | [] -> Hashtbl.remove t.aliases hpa_idx
      | l -> Hashtbl.replace t.aliases hpa_idx l)

let remove_entry t gpa_idx =
  match Hashtbl.find_opt t.pages gpa_idx with
  | None -> ()
  | Some { hpa; _ } ->
    alias_remove t ~gpa_idx ~hpa_idx:(page_index hpa);
    Hashtbl.remove t.pages gpa_idx

(* Every [(gpa_idx, entry)] whose target page base lies in the host
   range, in host-page order: O(pages in the range), not O(table). *)
let mappings_in t range =
  let first = (Addr.Range.base range + Addr.page_size - 1) / Addr.page_size
  and last = (Addr.Range.limit range - 1) / Addr.page_size in
  let acc = ref [] in
  let add gpa_idx = acc := (gpa_idx, Hashtbl.find t.pages gpa_idx) :: !acc in
  for hpa_idx = last downto first do
    (match Hashtbl.find_opt t.aliases hpa_idx with Some l -> List.iter add l | None -> ());
    match Hashtbl.find_opt t.pages hpa_idx with
    | Some e when page_index e.hpa = hpa_idx -> acc := (hpa_idx, e) :: !acc
    | _ -> ()
  done;
  !acc

let map_page t ~gpa ~hpa perm =
  if not (Addr.is_page_aligned gpa && Addr.is_page_aligned hpa) then
    invalid_arg "Ept.map_page: unaligned address";
  Fault.hit map_fault;
  Cycles.charge t.counter Cycles.Cost.ept_map_page;
  let gpa_idx = page_index gpa in
  (match Hashtbl.find_opt t.pages gpa_idx with
  | Some old -> alias_remove t ~gpa_idx ~hpa_idx:(page_index old.hpa)
  | None -> ());
  alias_add t ~gpa_idx ~hpa_idx:(page_index hpa);
  Hashtbl.replace t.pages gpa_idx { hpa; perm }

let map_range t ~gpa range perm =
  if not (Addr.Range.is_page_aligned range) || not (Addr.is_page_aligned gpa) then
    invalid_arg "Ept.map_range: unaligned range";
  List.iteri
    (fun i hpa -> map_page t ~gpa:(gpa + (i * Addr.page_size)) ~hpa perm)
    (Addr.Range.pages range)

let unmap_page t ~gpa =
  Fault.hit unmap_fault;
  Cycles.charge t.counter Cycles.Cost.ept_unmap_page;
  remove_entry t (page_index gpa)

let unmap_hpa_range t range =
  let victims = mappings_in t range in
  List.iter
    (fun (gpa_idx, _) ->
      Fault.hit unmap_fault;
      Cycles.charge t.counter Cycles.Cost.ept_unmap_page;
      remove_entry t gpa_idx)
    victims;
  List.length victims

let translate t ~gpa ~access =
  Cycles.charge t.counter Cycles.Cost.page_table_walk;
  match Hashtbl.find_opt t.pages (page_index gpa) with
  | None -> raise (Violation { gpa; access })
  | Some { hpa; perm } ->
    if Perm.allows perm access then hpa + (gpa land (Addr.page_size - 1))
    else raise (Violation { gpa; access })

let entry_at t ~gpa =
  match Hashtbl.find_opt t.pages (page_index gpa) with
  | Some { hpa; perm } -> Some (hpa, perm)
  | None -> None

let mappings_to t range =
  List.map
    (fun (gpa_idx, { hpa; perm }) -> (gpa_idx * Addr.page_size, hpa, perm))
    (mappings_in t range)

let mapped_pages t = Hashtbl.length t.pages

let hpa_reachable t addr =
  let page = Addr.align_down addr in
  Hashtbl.fold
    (fun _ { hpa; perm } acc -> if hpa = page then Perm.union acc perm else acc)
    t.pages Perm.none

let iter_mappings t f =
  (* Sort so iteration order is deterministic for tests and attestation. *)
  let entries =
    Hashtbl.fold (fun gpa_idx e acc -> (gpa_idx, e) :: acc) t.pages []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter
    (fun (gpa_idx, { hpa; perm }) -> f ~gpa:(gpa_idx * Addr.page_size) ~hpa perm)
    entries

let reaches_hpa_range t range =
  let hit = ref false in
  Hashtbl.iter
    (fun _ { hpa; _ } ->
      if (not !hit)
         && Addr.Range.overlaps range (Addr.Range.make ~base:hpa ~len:Addr.page_size)
      then hit := true)
    t.pages;
  !hit

module Eptp_list = struct
  type ept = t

  type nonrec t = {
    slots : ept option array;
    index : (int, int) Hashtbl.t; (* EPT id -> its slot *)
    mutable free : int list; (* vacated slots, reused newest first *)
    mutable fresh : int; (* slots from here up were never used *)
  }

  let max_entries = 512

  let create () =
    { slots = Array.make max_entries None; index = Hashtbl.create 16; free = []; fresh = 0 }

  let slot_of t ept = Hashtbl.find_opt t.index ept.id

  let take_slot t =
    match t.free with
    | i :: rest ->
      t.free <- rest;
      Some i
    | [] when t.fresh < max_entries ->
      t.fresh <- t.fresh + 1;
      Some (t.fresh - 1)
    | [] -> None

  let register t ept =
    match slot_of t ept with
    | Some i -> Some i
    | None ->
      let slot = take_slot t in
      Option.iter
        (fun i ->
          t.slots.(i) <- Some ept;
          Hashtbl.replace t.index ept.id i)
        slot;
      slot

  let unregister t ept =
    match slot_of t ept with
    | None -> false
    | Some i ->
      t.slots.(i) <- None;
      Hashtbl.remove t.index ept.id;
      t.free <- i :: t.free;
      true

  let get t i = if i < 0 || i >= max_entries then None else t.slots.(i)
  let count t = Hashtbl.length t.index
end
