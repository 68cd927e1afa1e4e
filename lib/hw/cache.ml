type t = {
  lines : (int, int) Hashtbl.t; (* line index -> last-toucher tag *)
  counter : Cycles.counter;
  mutable taint : Taint.t option;
}

let line_size = 64

(* Taint stores line indexes computed from its own copy of the line
   size; keep the two in lock step. *)
let () = assert (line_size = Taint.line_size)

let create ~counter = { lines = Hashtbl.create 1024; counter; taint = None }

let set_taint t taint = t.taint <- Some taint

let touch t ~tag addr =
  (* A fill observes whatever the line still holds before overwriting
     the tag — the probe a co-resident attacker performs. *)
  (match t.taint with None -> () | Some tt -> Taint.observe_line tt ~reader:tag addr);
  Hashtbl.replace t.lines (addr / line_size) tag

let resident_lines t = Hashtbl.length t.lines

let lines_tagged t ~tag =
  Hashtbl.fold (fun _ owner acc -> if owner = tag then acc + 1 else acc) t.lines 0

(* Probes the range's lines or folds the resident set, whichever is
   smaller: a revocation's clean-up query costs O(pages revoked), not
   O(cache). *)
let resident_lines_in t range =
  let first = Addr.Range.base range / line_size
  and last = Addr.Range.last range / line_size in
  if last - first < Hashtbl.length t.lines then begin
    let acc = ref [] in
    for line = last downto first do
      if Hashtbl.mem t.lines line then acc := line :: !acc
    done;
    !acc
  end
  else
    Hashtbl.fold
      (fun line _ acc -> if line >= first && line <= last then line :: acc else acc)
      t.lines []

let lines_of_tag t ~tag =
  Hashtbl.fold (fun line owner acc -> if owner = tag then line :: acc else acc) t.lines []

let flush_range t range =
  let first = Addr.Range.base range / line_size
  and last = Addr.Range.last range / line_size in
  for line = first to last do
    Cycles.charge t.counter Cycles.Cost.cache_flush_line;
    Hashtbl.remove t.lines line;
    match t.taint with None -> () | Some tt -> Taint.clear_line tt line
  done

let flush_all t =
  Cycles.charge t.counter Cycles.Cost.cache_flush_full;
  Hashtbl.reset t.lines;
  match t.taint with None -> () | Some tt -> Taint.clear_all_lines tt
