module W = Persist.Wire

let snap_blob = Persist.Store.snap_blob
let seg_blob = Persist.Store.seg_blob

type state = {
  seq : int;
  next_domain : Domain.id;
  domains : Domain.t list;
  current : Domain.id list;
  stacks : Domain.id list list;
  tree : Cap.Captree.t;
}

(* --- codec ----------------------------------------------------------- *)

(* The manifest's version byte: 4 since integers became varints.
   Records of any other version (the retired fixed-width version-2
   format, and versions 1 and 3) fail to decode, so the newest-valid
   scan skips them. *)
let version = 4

let bad what = raise (W.Corrupt ("bad " ^ what))

(* [-1] stands for "none" (domain 0's creator, an unset entry point, a
   root's parent); ids and addresses are never negative. *)
let opt b v = W.int b (Option.value v ~default:(-1))

let get_opt r =
  let v = W.get_int r in
  if v < 0 then None else Some v

let code what of_code r = match of_code (W.get_u8 r) with Some v -> v | None -> bad what

(* One table per enum, read both ways: the code is the index. *)
let origins = Cap.Captree.[| Orig_root; Orig_shared; Orig_granted; Orig_split |]
let states = Cap.Captree.[| Active; Inactive_granted; Inactive_split |]

let index_of table v =
  let rec go i = if table.(i) = v then i else go (i + 1) in
  go 0

let of_index what table r =
  let i = W.get_u8 r in
  if i < Array.length table then table.(i) else bad what

let range b r =
  W.int b (Hw.Addr.Range.base r);
  W.int b (Hw.Addr.Range.len r)

let get_range r =
  let base = W.get_int r in
  let len = W.get_int r in
  match Hw.Addr.Range.make ~base ~len with
  | range -> range
  | exception Invalid_argument _ -> bad "range"

let domain b d =
  W.int b (Domain.id d);
  W.str b (Domain.name d);
  W.u8 b (Domain.kind_to_code (Domain.kind d));
  opt b (Domain.created_by d);
  W.bool_ b (Domain.is_sealed d);
  opt b (Domain.entry_point d);
  W.list b range (Domain.measured_ranges d);
  W.bool_ b (Domain.flush_on_transition d);
  W.str b (Option.fold ~none:"" ~some:Crypto.Sha256.to_raw (Domain.measurement d))

let get_domain r =
  let id = W.get_int r in
  let name = W.get_str r in
  let kind = code "domain kind" Domain.kind_of_code r in
  let created_by = get_opt r in
  let sealed = W.get_bool r in
  let entry_point = get_opt r in
  let measured = W.get_list r get_range in
  let flush_on_transition = W.get_bool r in
  let measurement =
    match W.get_str r with
    | "" -> None
    | raw when String.length raw = Crypto.Sha256.digest_size -> Some (Crypto.Sha256.of_raw raw)
    | _ -> bad "measurement"
  in
  Domain.restore ~id ~name ~kind ~created_by ~sealed ~entry_point ~measured
    ~flush_on_transition ~measurement

let node b (n : Cap.Captree.node_spec) =
  W.int b n.ns_id;
  (match n.ns_resource with
  | Cap.Resource.Memory r ->
    W.u8 b 0;
    range b r
  | Cap.Resource.Cpu_core c ->
    W.u8 b 1;
    W.int b c
  | Cap.Resource.Device d ->
    W.u8 b 2;
    W.int b d);
  W.u8 b (Cap.Rights.to_bits n.ns_rights);
  W.int b n.ns_owner;
  W.u8 b (Cap.Revocation.to_code n.ns_cleanup);
  opt b n.ns_parent;
  W.u8 b (index_of origins n.ns_origin);
  W.u8 b (index_of states n.ns_state)

let get_node r : Cap.Captree.node_spec =
  let ns_id = W.get_int r in
  let ns_resource =
    match W.get_u8 r with
    | 0 -> Cap.Resource.Memory (get_range r)
    | 1 -> Cap.Resource.Cpu_core (W.get_int r)
    | 2 -> Cap.Resource.Device (W.get_int r)
    | _ -> bad "resource tag"
  in
  let ns_rights = code "rights" Cap.Rights.of_bits r in
  let ns_owner = W.get_int r in
  let ns_cleanup = code "cleanup" Cap.Revocation.of_code r in
  let ns_parent = get_opt r in
  let ns_origin = of_index "origin" origins r in
  let ns_state = of_index "state" states r in
  { ns_id; ns_resource; ns_rights; ns_owner; ns_cleanup; ns_parent; ns_origin; ns_state }

(* A segment's payload is [raw sha256 ^ encoded node list]: the hash is
   both the integrity check and the content address manifests name. *)
let encode_segment nodes =
  let b = Buffer.create 512 in
  W.list b node nodes;
  let body = Buffer.contents b in
  let h = Crypto.Sha256.(to_raw (string body)) in
  (h, h ^ body)

let decode_segment payload =
  let n = Crypto.Sha256.digest_size in
  if String.length payload < n then None
  else
    let h = String.sub payload 0 n in
    let body = String.sub payload n (String.length payload - n) in
    if Crypto.Sha256.(to_raw (string body)) <> h then None
    else
      match
        let r = W.reader body in
        let nodes = W.get_list r get_node in
        W.expect_end r;
        nodes
      with
      | nodes -> Some (h, nodes)
      | exception W.Corrupt _ -> None

let encode_manifest s entries =
  let b = Buffer.create 1024 in
  W.u8 b version;
  W.int b s.seq;
  W.int b s.next_domain;
  W.int b (Cap.Captree.next_id s.tree);
  W.int b (Cap.Captree.generation s.tree);
  W.list b domain s.domains;
  W.list b W.int s.current;
  W.list b (fun b stack -> W.list b W.int stack) s.stacks;
  W.int b Cap.Captree.seg_span;
  W.list b
    (fun b (bucket, h) ->
      W.int b bucket;
      W.str b h)
    entries;
  Buffer.contents b

(* The state a manifest describes, with its (bucket, hash) entries; the
   tree is rebuilt from the segments it names. *)
let decode_manifest segments payload =
  let r = W.reader payload in
  if W.get_u8 r <> version then bad "version";
  let seq = W.get_int r in
  let next_domain = W.get_int r in
  let next_id = W.get_int r in
  let generation = W.get_int r in
  let domains = W.get_list r get_domain in
  let current = W.get_list r W.get_int in
  let stacks = W.get_list r (fun r -> W.get_list r W.get_int) in
  if W.get_int r <> Cap.Captree.seg_span then bad "segment span";
  let entries =
    W.get_list r (fun r ->
        let bucket = W.get_int r in
        let h = W.get_str r in
        (bucket, h))
  in
  W.expect_end r;
  let nodes =
    List.concat_map
      (fun (_, h) ->
        match Hashtbl.find_opt segments h with
        | Some nodes -> nodes
        | None -> raise (W.Corrupt "manifest names a missing segment"))
      entries
  in
  ( { seq; next_domain; domains; current; stacks;
      tree = Cap.Captree.restore ~next_id ~generation nodes },
    entries )

(* Hash -> nodes of every valid segment durable in the store; the first
   copy of a hash wins. *)
let segment_index store =
  let idx = Hashtbl.create 64 in
  List.iter
    (fun (_, payload) ->
      match decode_segment payload with
      | Some (h, nodes) -> if not (Hashtbl.mem idx h) then Hashtbl.replace idx h nodes
      | None -> ())
    (Persist.Wal.read store ~blob:seg_blob).Persist.Wal.records;
  idx

(* --- writing --------------------------------------------------------- *)

type writer = {
  store : Persist.Store.t;
  mutable covered : int; (* captree generation the last checkpoint covered *)
  buckets : (int, string) Hashtbl.t; (* bucket -> segment hash then; "" = empty *)
  durable : (string, unit) Hashtbl.t; (* segment hashes durable: the dedup filter *)
  mutable tails_ok : bool;
}

let writer store =
  { store; covered = 0; buckets = Hashtbl.create 32; durable = Hashtbl.create 32;
    tails_ok = false }

(* A crash mid-append leaves a torn frame at a stream's tail, and the
   CRC-framed parse cannot see past it: a record appended after the
   tear would be durable but unreachable, a manifest lost or a segment
   a later manifest names but recovery cannot find. Writes repair both
   tails first, but only when one may be torn: the repair parses both
   streams end to end, an O(state) term no steady-state pause should
   pay. *)
let repair_tail store blob =
  let scan = Persist.Wal.read store ~blob in
  if scan.Persist.Wal.truncated then
    Persist.Store.truncate store blob scan.Persist.Wal.valid_bytes

(* The manifest append is the commit point: the fault models power loss
   mid-append, leaving a deterministic torn prefix of the frame on the
   medium for the newest-valid scan to skip. *)
let p_manifest_swap = Fault.register "manifest.swap"

let append_manifest store ~seq payload =
  if Fault.fires p_manifest_swap then begin
    let framed = Persist.Wal.frame ~seq payload in
    let keep = Persist.Store.torn_len ~bytes:framed ~trip:(Fault.trips p_manifest_swap) in
    Persist.Store.append store snap_blob (String.sub framed 0 keep);
    Persist.Store.fsync store snap_blob;
    (* The rest of the device's write cache dies with the power. *)
    Persist.Store.power_fail store;
    raise (Persist.Store.Crash (Fault.name p_manifest_swap))
  end;
  Persist.Wal.append store ~blob:snap_blob ~seq payload;
  Persist.Store.fsync store snap_blob

(* Rewrite the segment stream keeping one copy of every live segment, in
   one atomic [Store.replace]; returns the records dropped. Older
   manifests may stop materializing — the newest one, durable, makes
   them moot. *)
let collect_segments store ~live =
  let records = (Persist.Wal.read store ~blob:seg_blob).Persist.Wal.records in
  let seen = Hashtbl.create 16 in
  let keep =
    List.filter
      (fun (_, payload) ->
        match decode_segment payload with
        | Some (h, _) when Hashtbl.mem live h && not (Hashtbl.mem seen h) ->
          Hashtbl.replace seen h ();
          true
        | _ -> false)
      records
  in
  let dropped = List.length records - List.length keep in
  if dropped > 0 then
    Persist.Store.replace store seg_blob
      (String.concat "" (List.map (fun (seq, payload) -> Persist.Wal.frame ~seq payload) keep));
  dropped

let pause_h = Obs.Metrics.histogram "persist.ckpt.pause_ns"
let bytes_h = Obs.Metrics.histogram "persist.ckpt.bytes"
let segments_h = Obs.Metrics.histogram "persist.ckpt.segments"
let ckpt_c = Obs.Metrics.counter "persist.ckpt"
let gc_c = Obs.Metrics.counter "persist.seg_gc_dropped"

let write w ~group s =
  let t0 = Sys.time () in
  let store = w.store and tree = s.tree in
  if not w.tails_ok then begin
    repair_tail store snap_blob;
    repair_tail store seg_blob
  end;
  (* Not ok while this write is in flight: a crash inside it leaves a
     torn tail the next writer must scan for. *)
  w.tails_ok <- false;
  let entries = ref [] and fresh = ref [] in
  for b = 0 to (Cap.Captree.next_id tree - 1) / Cap.Captree.seg_span do
    let dirty =
      match Hashtbl.find_opt w.buckets b with
      | None -> true
      | Some _ -> Cap.Captree.bucket_generation tree b > w.covered
    in
    if dirty then begin
      match Cap.Captree.dump_bucket tree b with
      | [] -> Hashtbl.replace w.buckets b ""
      | nodes ->
        let h, payload = encode_segment nodes in
        if not (Hashtbl.mem w.durable h) then fresh := (b, h, payload) :: !fresh;
        Hashtbl.replace w.buckets b h
    end;
    match Hashtbl.find_opt w.buckets b with
    | Some "" | None -> ()
    | Some h -> entries := (b, h) :: !entries
  done;
  let entries = List.rev !entries and fresh = List.rev !fresh in
  if fresh <> [] then begin
    List.iter (fun (b, _, payload) -> Persist.Wal.append store ~blob:seg_blob ~seq:b payload) fresh;
    Persist.Store.fsync store seg_blob;
    (* Only now are these hashes safe to dedup against: marking them
       before the fsync could let a later manifest name bytes a crash
       threw away. *)
    List.iter (fun (_, h, _) -> Hashtbl.replace w.durable h ()) fresh
  end;
  let manifest = encode_manifest s entries in
  append_manifest store ~seq:s.seq manifest;
  w.tails_ok <- true;
  w.covered <- Cap.Captree.generation tree;
  Persist.Group.note_durable group ~seq:s.seq;
  let live = Hashtbl.create (List.length entries) in
  List.iter (fun (_, h) -> Hashtbl.replace live h ()) entries;
  if Hashtbl.length w.durable > (2 * Hashtbl.length live) + 8 then begin
    let dropped = collect_segments store ~live in
    if dropped > 0 then begin
      Obs.Metrics.incr ~by:dropped gc_c;
      Hashtbl.reset w.durable;
      Hashtbl.iter (fun h () -> Hashtbl.replace w.durable h ()) live
    end
  end;
  Obs.Metrics.incr ckpt_c;
  Obs.Metrics.observe segments_h (List.length fresh);
  Obs.Metrics.observe bytes_h
    (List.fold_left (fun n (_, _, p) -> n + String.length p) (String.length manifest) fresh);
  (* Host CPU time, not simulated cycles: the checkpoint charges no
     hardware events, and the pause that matters is real serialization
     work. Observability only — never feeds back into control flow. *)
  Obs.Metrics.observe pause_h (int_of_float ((Sys.time () -. t0) *. 1e9))

(* --- loading --------------------------------------------------------- *)

type loaded = {
  state : state option;
  scanned : int;
  torn : bool;
  writer : writer;
}

let load store =
  let { Persist.Wal.records; truncated; _ } = Persist.Wal.read store ~blob:snap_blob in
  let segments = segment_index store in
  let rec newest skipped = function
    | [] -> (None, [], skipped)
    | (_, payload) :: older -> (
      match decode_manifest segments payload with
      | state, entries -> (Some state, entries, skipped)
      | exception W.Corrupt _ -> newest (skipped + 1) older)
  in
  let state, entries, skipped = newest 0 (List.rev records) in
  (* Seed the writer so the next checkpoint re-serializes only what
     replay dirties: a restored tree reports every bucket clean, which
     is right, since the manifest covers it. *)
  let w = writer store in
  Hashtbl.iter (fun h _ -> Hashtbl.replace w.durable h ()) segments;
  List.iter (fun (b, h) -> Hashtbl.replace w.buckets b h) entries;
  Option.iter (fun s -> w.covered <- Cap.Captree.generation s.tree) state;
  { state; scanned = List.length records; torn = truncated || skipped > 0; writer = w }
