type t = {
  entries : (int * int, Addr.t) Hashtbl.t; (* (asid, gpa page) -> hpa page *)
  counter : Cycles.counter;
  mutable taint : Taint.t option;
}

let create ~counter = { entries = Hashtbl.create 256; counter; taint = None }

let set_taint t taint = t.taint <- Some taint

let fill t ~asid ~gpa ~hpa =
  Hashtbl.replace t.entries (asid, Addr.align_down gpa) (Addr.align_down hpa)

let lookup t ~asid ~gpa =
  match Hashtbl.find_opt t.entries (asid, Addr.align_down gpa) with
  | Some hpa_page ->
    (* The hazard the oracle exists for: on x86 a hit skips the EPT
       walk, so a stale entry is a revocation bypass. A hit on a
       tainted entry means the required shootdown never happened. *)
    (match t.taint with None -> () | Some tt -> Taint.observe_tlb tt ~asid ~gpa);
    Some (hpa_page + (gpa land (Addr.page_size - 1)))
  | None -> None

let flush_all t =
  Cycles.charge t.counter Cycles.Cost.tlb_flush_full;
  Hashtbl.reset t.entries;
  match t.taint with None -> () | Some tt -> Taint.clear_all_tlb tt

let flush_asid t ~asid =
  Cycles.charge t.counter Cycles.Cost.tlb_flush_asid;
  let victims =
    Hashtbl.fold (fun (a, g) _ acc -> if a = asid then (a, g) :: acc else acc) t.entries []
  in
  List.iter (Hashtbl.remove t.entries) victims;
  match t.taint with None -> () | Some tt -> Taint.clear_tlb_asid tt ~asid

let shootdown t ~remote_cores =
  Cycles.charge t.counter (remote_cores * Cycles.Cost.tlb_shootdown_ipi);
  flush_all t

let entries t = Hashtbl.length t.entries

let all_entries t =
  Hashtbl.fold (fun (asid, gpa) hpa acc -> (asid, gpa, hpa) :: acc) t.entries []

let stale_for_hpa t range =
  Hashtbl.fold
    (fun (asid, gpa) hpa acc ->
      if Addr.Range.overlaps range (Addr.Range.make ~base:hpa ~len:Addr.page_size) then
        (asid, gpa) :: acc
      else acc)
    t.entries []

let entries_into t ~asid range =
  if Hashtbl.length t.entries = 0 then []
  else List.filter (fun (a, _) -> a = asid) (stale_for_hpa t range)
