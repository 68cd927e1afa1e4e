(* Live domain migration over the fleet data plane.

   The protocol rides the ["migrate"] data channel of {!Fleet}, so
   sequencing, HMACs, the durable outbox, cumulative acks and capped
   retry are inherited rather than rebuilt. What this module adds:

   - content-addressed page transfer: the domain's memory is cut on the
     page grid, each piece shipped as [Chunk { hash; bytes }] and stored
     durably on the target keyed by hash — an [Offer] lists the hashes
     and the target's [Need] answers with only the ones it lacks, so a
     resumed (or repeated) migration never re-sends bytes the target
     already persisted, and zero pages collapse to one chunk;
   - a dual durable journal (the ["migrate"] blob on each store): every
     state transition is fsynced before the message it makes meaningful
     leaves, so a crash-restart of either endpoint resumes mid-protocol
     or aborts cleanly — the source domain stays frozen-but-alive until
     the target's fsck-verified receipt, and exactly one monitor hosts
     the domain once the journals drain;
   - the receipt chain: [Final] carries the domain's batch attestation
     and the Merkle root of the source's pre-migration batch-attest,
     plus portable digests of configuration and content. The target
     verifies measurement, Merkle inclusion, region agreement and —
     after adopting through the public logged monitor API — recomputes
     both digests from its own tree and memory before acking.

   Chunk bytes live in the same journal as the state records (they are
   [MT_chunk] records), NOT in the checkpoint segment blob: the
   monitor's segment GC validates node-list payloads and would drop
   opaque page bytes on its next sweep. *)

let ( let* ) = Result.bind

type error =
  | Fleet_error of Fleet.error
  | Monitor_error of Tyche.Monitor.error
  | Refused of string
  | Unknown_migration of string

let error_to_string = function
  | Fleet_error e -> Fleet.error_to_string e
  | Monitor_error e -> Tyche.Monitor.error_to_string e
  | Refused r -> "refused: " ^ r
  | Unknown_migration m -> "unknown migration: " ^ m

(* --- fault points ----------------------------------------------------- *)

(* Each fires as a power failure at the matching crash window:
   [migrate.chunk] while the target persists a chunk (the bytes and the
   journal record are lost together), [migrate.commit] at the source's
   two commit transitions (entering Committing, and the final
   destroy-and-proxy swap), [migrate.abort] before either endpoint's
   abort record is durable. *)
let chunk_point = Fault.register "migrate.chunk"
let commit_point = Fault.register "migrate.commit"
let abort_point = Fault.register "migrate.abort"

(* --- metrics ----------------------------------------------------------- *)

let started_c = Obs.Metrics.counter "migrate.started"
let committed_c = Obs.Metrics.counter "migrate.committed"
let aborted_c = Obs.Metrics.counter "migrate.aborted"
let resumed_c = Obs.Metrics.counter "migrate.resumed"
let chunks_tx_c = Obs.Metrics.counter "migrate.chunks_tx"
let chunks_rx_c = Obs.Metrics.counter "migrate.chunks_rx"
let dedup_c = Obs.Metrics.counter "migrate.chunks_deduped"
let reject_c = Obs.Metrics.counter "migrate.rejected"
let active_g = Obs.Metrics.gauge "migrate.active"

(* --- wire format ------------------------------------------------------- *)

module Wire = struct
  type manifest = {
    mf_name : string;
    mf_kind : int;
    mf_entry : int;
    mf_flush : bool;
    mf_measurement : string;
    mf_caps : (int * int * int * int) list;
    mf_measured : (int * int) list;
    mf_pages : (int * int * string) list;
    mf_dels : (string * int * int * int) list;
    mf_att : string;
    mf_root : string;
    mf_state : string;
    mf_image : string;
  }

  type frame =
    | Offer of { mig : string; hashes : string list }
    | Need of { mig : string; hashes : string list }
    | Chunk of { mig : string; hash : string; bytes : string }
    | Chunk_ack of { mig : string; hash : string }
    | Final of { mig : string; manifest : manifest }
    | Receipt of { mig : string; image : string }
    | Commit of { mig : string }
    | Abort of { mig : string; reason : string }

  let digest32 r =
    let s = Persist.Wire.get_str r in
    if String.length s <> 32 then raise (Persist.Wire.Corrupt "digest is not 32 bytes");
    s

  let put_manifest buf mf =
    Persist.Wire.str buf mf.mf_name;
    Persist.Wire.u8 buf mf.mf_kind;
    Persist.Wire.int buf mf.mf_entry;
    Persist.Wire.bool_ buf mf.mf_flush;
    Persist.Wire.str buf mf.mf_measurement;
    Persist.Wire.list buf
      (fun b (base, len, rights, cleanup) ->
        Persist.Wire.int b base;
        Persist.Wire.int b len;
        Persist.Wire.u8 b rights;
        Persist.Wire.u8 b cleanup)
      mf.mf_caps;
    Persist.Wire.list buf
      (fun b (base, len) ->
        Persist.Wire.int b base;
        Persist.Wire.int b len)
      mf.mf_measured;
    Persist.Wire.list buf
      (fun b (base, len, hash) ->
        Persist.Wire.int b base;
        Persist.Wire.int b len;
        Persist.Wire.str b hash)
      mf.mf_pages;
    Persist.Wire.list buf
      (fun b (peer, base, len, rights) ->
        Persist.Wire.str b peer;
        Persist.Wire.int b base;
        Persist.Wire.int b len;
        Persist.Wire.u8 b rights)
      mf.mf_dels;
    Persist.Wire.str buf mf.mf_att;
    Persist.Wire.str buf mf.mf_root;
    Persist.Wire.str buf mf.mf_state;
    Persist.Wire.str buf mf.mf_image

  let get_manifest r =
    let mf_name = Persist.Wire.get_str r in
    let mf_kind = Persist.Wire.get_u8 r in
    let mf_entry = Persist.Wire.get_int r in
    let mf_flush = Persist.Wire.get_bool r in
    let mf_measurement = digest32 r in
    let mf_caps =
      Persist.Wire.get_list r (fun b ->
          let base = Persist.Wire.get_int b in
          let len = Persist.Wire.get_int b in
          let rights = Persist.Wire.get_u8 b in
          let cleanup = Persist.Wire.get_u8 b in
          (base, len, rights, cleanup))
    in
    let mf_measured =
      Persist.Wire.get_list r (fun b ->
          let base = Persist.Wire.get_int b in
          let len = Persist.Wire.get_int b in
          (base, len))
    in
    let mf_pages =
      Persist.Wire.get_list r (fun b ->
          let base = Persist.Wire.get_int b in
          let len = Persist.Wire.get_int b in
          let hash = digest32 b in
          (base, len, hash))
    in
    let mf_dels =
      Persist.Wire.get_list r (fun b ->
          let peer = Persist.Wire.get_str b in
          let base = Persist.Wire.get_int b in
          let len = Persist.Wire.get_int b in
          let rights = Persist.Wire.get_u8 b in
          (peer, base, len, rights))
    in
    let mf_att = Persist.Wire.get_str r in
    let mf_root = digest32 r in
    let mf_state = digest32 r in
    let mf_image = digest32 r in
    { mf_name; mf_kind; mf_entry; mf_flush; mf_measurement; mf_caps; mf_measured;
      mf_pages; mf_dels; mf_att; mf_root; mf_state; mf_image }

  let encode_manifest mf =
    let buf = Buffer.create 512 in
    put_manifest buf mf;
    Buffer.contents buf

  let decode_manifest s =
    match
      let r = Persist.Wire.reader s in
      let mf = get_manifest r in
      Persist.Wire.expect_end r;
      mf
    with
    | mf -> Ok mf
    | exception Persist.Wire.Corrupt e -> Error e

  let encode_frame f =
    let buf = Buffer.create 64 in
    (match f with
    | Offer { mig; hashes } ->
      Persist.Wire.u8 buf 1;
      Persist.Wire.str buf mig;
      Persist.Wire.list buf Persist.Wire.str hashes
    | Need { mig; hashes } ->
      Persist.Wire.u8 buf 2;
      Persist.Wire.str buf mig;
      Persist.Wire.list buf Persist.Wire.str hashes
    | Chunk { mig; hash; bytes } ->
      Persist.Wire.u8 buf 3;
      Persist.Wire.str buf mig;
      Persist.Wire.str buf hash;
      Persist.Wire.str buf bytes
    | Chunk_ack { mig; hash } ->
      Persist.Wire.u8 buf 4;
      Persist.Wire.str buf mig;
      Persist.Wire.str buf hash
    | Final { mig; manifest } ->
      Persist.Wire.u8 buf 5;
      Persist.Wire.str buf mig;
      put_manifest buf manifest
    | Receipt { mig; image } ->
      Persist.Wire.u8 buf 6;
      Persist.Wire.str buf mig;
      Persist.Wire.str buf image
    | Commit { mig } ->
      Persist.Wire.u8 buf 7;
      Persist.Wire.str buf mig
    | Abort { mig; reason } ->
      Persist.Wire.u8 buf 8;
      Persist.Wire.str buf mig;
      Persist.Wire.str buf reason);
    Buffer.contents buf

  let decode_frame s =
    match
      let r = Persist.Wire.reader s in
      let f =
        match Persist.Wire.get_u8 r with
        | 1 ->
          let mig = Persist.Wire.get_str r in
          Offer { mig; hashes = Persist.Wire.get_list r digest32 }
        | 2 ->
          let mig = Persist.Wire.get_str r in
          Need { mig; hashes = Persist.Wire.get_list r digest32 }
        | 3 ->
          let mig = Persist.Wire.get_str r in
          let hash = digest32 r in
          let bytes = Persist.Wire.get_str r in
          Chunk { mig; hash; bytes }
        | 4 ->
          let mig = Persist.Wire.get_str r in
          let hash = digest32 r in
          Chunk_ack { mig; hash }
        | 5 ->
          let mig = Persist.Wire.get_str r in
          Final { mig; manifest = get_manifest r }
        | 6 ->
          let mig = Persist.Wire.get_str r in
          Receipt { mig; image = digest32 r }
        | 7 -> Commit { mig = Persist.Wire.get_str r }
        | 8 ->
          let mig = Persist.Wire.get_str r in
          Abort { mig; reason = Persist.Wire.get_str r }
        | t -> raise (Persist.Wire.Corrupt (Printf.sprintf "unknown migrate tag %d" t))
      in
      Persist.Wire.expect_end r;
      f
    with
    | f -> Ok f
    | exception Persist.Wire.Corrupt e -> Error e
end

(* --- durable journal --------------------------------------------------- *)

let migrate_blob = "migrate"

(* Source records trace Offered → Streaming → Committing → Committed;
   target records trace Receiving → Parked → Live. Chunks are plain
   journal records so the content-addressed store and the protocol
   state share one fsync discipline. *)
type jrec =
  | MS_begin of { mig : string; domain : int; peer : string; name : string }
  | MS_frozen of { mig : string; image : string }
      (* [image] is the offered manifest's image digest: a resumed
         source accepts a receipt for it even when its own volatile page
         content died with the crash (the target's adopted copy is then
         the only surviving copy of the pre-crash content). *)
  | MS_receipt of { mig : string; image : string }
  | MS_committing of { mig : string }
  | MS_done of { mig : string }
  | MS_abort of { mig : string; reason : string }
  | MT_begin of { mig : string; origin : string }
  | MT_chunk of { hash : string; bytes : string }
  | MT_final of { mig : string; manifest : string }
  | MT_adopting of { mig : string }
  | MT_adopted of { mig : string; domain : int; root : string }
      (* [root] pins the origin's attestation root the manifest was
         verified against at adoption time: the receipt stays bound to
         the source's PRE-migration batch root even after the source
         crash-recovers under a fresh signer. *)
  | MT_live of { mig : string }
  | MT_abort of { mig : string; reason : string }

let encode_jrec r =
  let buf = Buffer.create 48 in
  (match r with
  | MS_begin { mig; domain; peer; name } ->
    Persist.Wire.u8 buf 1;
    Persist.Wire.str buf mig;
    Persist.Wire.int buf domain;
    Persist.Wire.str buf peer;
    Persist.Wire.str buf name
  | MS_frozen { mig; image } ->
    Persist.Wire.u8 buf 2;
    Persist.Wire.str buf mig;
    Persist.Wire.str buf image
  | MS_receipt { mig; image } ->
    Persist.Wire.u8 buf 3;
    Persist.Wire.str buf mig;
    Persist.Wire.str buf image
  | MS_committing { mig } ->
    Persist.Wire.u8 buf 4;
    Persist.Wire.str buf mig
  | MS_done { mig } ->
    Persist.Wire.u8 buf 5;
    Persist.Wire.str buf mig
  | MS_abort { mig; reason } ->
    Persist.Wire.u8 buf 6;
    Persist.Wire.str buf mig;
    Persist.Wire.str buf reason
  | MT_begin { mig; origin } ->
    Persist.Wire.u8 buf 7;
    Persist.Wire.str buf mig;
    Persist.Wire.str buf origin
  | MT_chunk { hash; bytes } ->
    Persist.Wire.u8 buf 8;
    Persist.Wire.str buf hash;
    Persist.Wire.str buf bytes
  | MT_final { mig; manifest } ->
    Persist.Wire.u8 buf 9;
    Persist.Wire.str buf mig;
    Persist.Wire.str buf manifest
  | MT_adopting { mig } ->
    Persist.Wire.u8 buf 10;
    Persist.Wire.str buf mig
  | MT_adopted { mig; domain; root } ->
    Persist.Wire.u8 buf 11;
    Persist.Wire.str buf mig;
    Persist.Wire.int buf domain;
    Persist.Wire.str buf root
  | MT_live { mig } ->
    Persist.Wire.u8 buf 12;
    Persist.Wire.str buf mig
  | MT_abort { mig; reason } ->
    Persist.Wire.u8 buf 13;
    Persist.Wire.str buf mig;
    Persist.Wire.str buf reason);
  Buffer.contents buf

let decode_jrec payload =
  match
    let r = Persist.Wire.reader payload in
    let rec_ =
      match Persist.Wire.get_u8 r with
      | 1 ->
        let mig = Persist.Wire.get_str r in
        let domain = Persist.Wire.get_int r in
        let peer = Persist.Wire.get_str r in
        let name = Persist.Wire.get_str r in
        MS_begin { mig; domain; peer; name }
      | 2 ->
        let mig = Persist.Wire.get_str r in
        MS_frozen { mig; image = Persist.Wire.get_str r }
      | 3 ->
        let mig = Persist.Wire.get_str r in
        MS_receipt { mig; image = Persist.Wire.get_str r }
      | 4 -> MS_committing { mig = Persist.Wire.get_str r }
      | 5 -> MS_done { mig = Persist.Wire.get_str r }
      | 6 ->
        let mig = Persist.Wire.get_str r in
        MS_abort { mig; reason = Persist.Wire.get_str r }
      | 7 ->
        let mig = Persist.Wire.get_str r in
        MT_begin { mig; origin = Persist.Wire.get_str r }
      | 8 ->
        let hash = Persist.Wire.get_str r in
        MT_chunk { hash; bytes = Persist.Wire.get_str r }
      | 9 ->
        let mig = Persist.Wire.get_str r in
        MT_final { mig; manifest = Persist.Wire.get_str r }
      | 10 -> MT_adopting { mig = Persist.Wire.get_str r }
      | 11 ->
        let mig = Persist.Wire.get_str r in
        let domain = Persist.Wire.get_int r in
        MT_adopted { mig; domain; root = Persist.Wire.get_str r }
      | 12 -> MT_live { mig = Persist.Wire.get_str r }
      | 13 ->
        let mig = Persist.Wire.get_str r in
        MT_abort { mig; reason = Persist.Wire.get_str r }
      | t -> raise (Persist.Wire.Corrupt (Printf.sprintf "unknown migrate jrec %d" t))
    in
    Persist.Wire.expect_end r;
    rec_
  with
  | r -> Some r
  | exception Persist.Wire.Corrupt _ -> None

(* --- runtime state ----------------------------------------------------- *)

type src_phase =
  | S_streaming
  | S_await_receipt
  | S_committing
  | S_done
  | S_aborted of string

type src = {
  sm_mig : string;
  sm_domain : int;
  sm_peer : string;
  sm_name : string;
  mutable sm_phase : src_phase;
  mutable sm_offered : bool; (* Offer acknowledged send since (re)start. *)
  mutable sm_need_seen : bool; (* The target answered with its Need. *)
  mutable sm_prior_images : string list;
      (* Image digests journaled at freeze time by pre-crash lives of
         this migration; a receipt for any of them is still acceptable
         (each was a genuine manifest of the frozen domain at the time
         it was offered). *)
  mutable sm_commit_due : bool; (* Re-send Commit after recovery. *)
  mutable sm_abort_due : bool; (* Re-send Abort after recovery. *)
  mutable sm_pages : (string * string) list; (* hash -> bytes, volatile. *)
  mutable sm_todo : string list;
  mutable sm_inflight : string list;
  mutable sm_manifest : Wire.manifest option;
}

type tgt_phase =
  | T_receiving
  | T_adopted of int
  | T_live of int
  | T_aborted of string

type tgt = {
  tm_mig : string;
  tm_origin : string;
  mutable tm_phase : tgt_phase;
  mutable tm_manifest : Wire.manifest option;
  mutable tm_adopt_due : bool; (* Re-run adoption after recovery. *)
  mutable tm_cleanup : bool; (* A partial adopt may exist; destroy it first. *)
  mutable tm_receipt_due : bool;
  mutable tm_root : string option;
      (* Origin attestation root pinned at adoption (raw digest); the
         receipt verifies against it, not the mutable peer-root table. *)
  mutable tm_redelegate : (string * int * int * int) list;
}

type t = {
  fleet : Fleet.t;
  store : Persist.Store.t;
  mutable jseq : int;
  chunks : (string, string) Hashtbl.t; (* hash -> bytes, durable mirror. *)
  srcs : (string, src) Hashtbl.t;
  tgts : (string, tgt) Hashtbl.t;
  mutable counter : int;
  peer_roots : (string, Crypto.Sha256.digest) Hashtbl.t; (* volatile *)
  deferred : (string * Wire.frame) Queue.t; (* (peer, frame) awaiting a session. *)
}

type role = Source | Target

type phase =
  | Offered
  | Streaming
  | Committing
  | Committed
  | Receiving
  | Parked
  | Live
  | Aborted of string

let pp_phase fmt = function
  | Offered -> Format.pp_print_string fmt "offered"
  | Streaming -> Format.pp_print_string fmt "streaming"
  | Committing -> Format.pp_print_string fmt "committing"
  | Committed -> Format.pp_print_string fmt "committed"
  | Receiving -> Format.pp_print_string fmt "receiving"
  | Parked -> Format.pp_print_string fmt "parked"
  | Live -> Format.pp_print_string fmt "live"
  | Aborted r -> Format.fprintf fmt "aborted (%s)" r

let src_phase s =
  match s.sm_phase with
  | S_streaming -> if s.sm_offered then Streaming else Offered
  | S_await_receipt -> Streaming
  | S_committing -> Committing
  | S_done -> Committed
  | S_aborted r -> Aborted r

let tgt_phase tg =
  match tg.tm_phase with
  | T_receiving -> Receiving
  | T_adopted _ -> Parked
  | T_live _ -> Live
  | T_aborted r -> Aborted r

let terminal_src s = match s.sm_phase with S_done | S_aborted _ -> true | _ -> false
let terminal_tgt tg = match tg.tm_phase with T_live _ | T_aborted _ -> true | _ -> false

let update_active t =
  let n = ref 0 in
  Hashtbl.iter (fun _ s -> if not (terminal_src s) then incr n) t.srcs;
  Hashtbl.iter (fun _ tg -> if not (terminal_tgt tg) then incr n) t.tgts;
  Obs.Metrics.set_gauge active_g !n

let monitor t = Fleet.monitor t.fleet

let jput t r =
  t.jseq <- t.jseq + 1;
  Persist.Wal.append t.store ~blob:migrate_blob ~seq:t.jseq (encode_jrec r)

(* Like the fleet journal: the monitor's group commit flushes first, so
   a migrate record never references monitor state that did not make it
   to disk. *)
let jsync t =
  Tyche.Monitor.flush (monitor t);
  Persist.Store.fsync t.store migrate_blob

let crash_at point what =
  fun store ->
   if Fault.fires point then begin
     Persist.Store.power_fail store;
     raise (Persist.Store.Crash what)
   end

let crash_chunk = crash_at chunk_point "migrate.chunk"
let crash_commit = crash_at commit_point "migrate.commit"
let crash_abort = crash_at abort_point "migrate.abort"

let sha_raw s = Crypto.Sha256.(to_raw (string s))

(* --- sending ----------------------------------------------------------- *)

(* Best-effort send with a deferred queue: a frame that cannot leave yet
   (peer not re-keyed after recovery) is retried from [tick]. Offers are
   never deferred — the source re-offers from tick until one sends. *)
let post t ~peer frame =
  match Fleet.send_data t.fleet ~peer ~chan:migrate_blob (Wire.encode_frame frame) with
  | Ok _ -> true
  | Error _ ->
    Queue.add (peer, frame) t.deferred;
    false

let try_send t ~peer frame =
  match Fleet.send_data t.fleet ~peer ~chan:migrate_blob (Wire.encode_frame frame) with
  | Ok _ -> true
  | Error _ -> false

(* --- portable digests -------------------------------------------------- *)

(* The state digest covers everything about the domain that must arrive
   intact and that both monitors can recompute from their own trees:
   identity, configuration, measurement, and the (base, len, rights,
   cleanup) set of its memory capabilities. Machine-specific facts —
   domain ids, refcounts, proxy holders, core/device caps — are
   deliberately excluded. The image digest adds the page contents. *)
let state_digest ~name ~kind ~entry ~flush ~measurement ~caps ~measured =
  let buf = Buffer.create 256 in
  Persist.Wire.str buf "tyche-migrate-state-v1";
  Persist.Wire.str buf name;
  Persist.Wire.u8 buf kind;
  Persist.Wire.int buf entry;
  Persist.Wire.bool_ buf flush;
  Persist.Wire.str buf measurement;
  Persist.Wire.list buf
    (fun b (base, len, rights, cleanup) ->
      Persist.Wire.int b base;
      Persist.Wire.int b len;
      Persist.Wire.u8 b rights;
      Persist.Wire.u8 b cleanup)
    (List.sort compare caps);
  Persist.Wire.list buf
    (fun b (base, len) ->
      Persist.Wire.int b base;
      Persist.Wire.int b len)
    measured;
  sha_raw (Buffer.contents buf)

let image_digest ~state ~pages =
  let buf = Buffer.create 256 in
  Persist.Wire.str buf "tyche-migrate-image-v1";
  Persist.Wire.str buf state;
  Persist.Wire.list buf
    (fun b (base, len, hash) ->
      Persist.Wire.int b base;
      Persist.Wire.int b len;
      Persist.Wire.str b hash)
    (List.sort compare pages);
  sha_raw (Buffer.contents buf)

(* --- domain enumeration ------------------------------------------------ *)

(* The domain's active memory caps as portable tuples. *)
let mem_caps m domain =
  let tree = Tyche.Monitor.tree m in
  List.filter_map
    (fun cap ->
      match Cap.Captree.resource tree cap with
      | Some (Cap.Resource.Memory r) ->
        let rights =
          match Cap.Captree.rights tree cap with
          | Some rt -> Cap.Rights.to_bits rt
          | None -> 0
        in
        let cleanup =
          match Cap.Captree.cleanup tree cap with
          | Some c -> Cap.Revocation.to_code c
          | None -> 0
        in
        Some (Hw.Addr.Range.base r, Hw.Addr.Range.len r, rights, cleanup)
      | _ -> None)
    (Cap.Captree.caps_of_domain tree domain)

(* Cut ranges on the page grid: content-addressing at page granularity
   is what makes re-sends and zero pages dedup. *)
let page_pieces ranges =
  List.concat_map
    (fun (base, len) ->
      let rec go b acc =
        if b >= base + len then List.rev acc
        else
          let nxt = min (base + len) (Hw.Addr.align_down b + Hw.Addr.page_size) in
          go nxt ((b, nxt - b) :: acc)
      in
      go base [])
    ranges

let read_pages m pieces =
  let mem = (Tyche.Monitor.machine m).Hw.Machine.mem in
  List.map
    (fun (base, len) ->
      let bytes = Hw.Physmem.read mem (Hw.Addr.Range.make ~base ~len) in
      (base, len, sha_raw bytes, bytes))
    pieces

(* Recompute the portable digests from this monitor's own tree and
   memory — what the target checks after adoption, and what
   [verify_receipt] re-checks after any crash. *)
let local_digests m domain =
  match Tyche.Monitor.find_domain m domain with
  | None -> None
  | Some dom ->
    (match Tyche.Domain.measurement dom with
    | None -> None
    | Some meas ->
      let caps = mem_caps m domain in
      let measured =
        List.map
          (fun r -> (Hw.Addr.Range.base r, Hw.Addr.Range.len r))
          (Tyche.Domain.measured_ranges dom)
      in
      let state =
        state_digest ~name:(Tyche.Domain.name dom)
          ~kind:(Tyche.Domain.kind_to_code (Tyche.Domain.kind dom))
          ~entry:(Option.value (Tyche.Domain.entry_point dom) ~default:(-1))
          ~flush:(Tyche.Domain.flush_on_transition dom)
          ~measurement:(Crypto.Sha256.to_raw meas) ~caps ~measured
      in
      let pages =
        read_pages m (page_pieces (List.map (fun (b, l, _, _) -> (b, l)) caps))
        |> List.map (fun (b, l, h, _) -> (b, l, h))
      in
      Some (state, image_digest ~state ~pages))

(* Outbound fleet delegations whose local parent cap is owned by the
   domain — the set commit re-homes. *)
let dels_of_domain t domain =
  let tree = Tyche.Monitor.tree (monitor t) in
  List.filter
    (fun d ->
      match Cap.Captree.parent tree d.Fleet.proxy_cap with
      | Some p -> Cap.Captree.owner tree p = Some domain
      | None -> false)
    (Fleet.delegations t.fleet)

(* --- source: manifest construction ------------------------------------- *)

let build_manifest t src =
  let m = monitor t in
  match Tyche.Monitor.find_domain m src.sm_domain with
  | None -> Error (Refused "domain disappeared")
  | Some dom ->
    (match Tyche.Domain.measurement dom with
    | None -> Error (Refused "only sealed domains migrate")
    | Some meas ->
      let caps = mem_caps m src.sm_domain in
      let pages4 =
        read_pages m (page_pieces (List.map (fun (b, l, _, _) -> (b, l)) caps))
      in
      let pages = List.map (fun (b, l, h, _) -> (b, l, h)) pages4 in
      (* Dedup the byte map by hash (zero pages collapse here too). *)
      let bytes_by_hash =
        List.fold_left
          (fun acc (_, _, h, bytes) -> if List.mem_assoc h acc then acc else (h, bytes) :: acc)
          [] pages4
      in
      let measured =
        List.map
          (fun r -> (Hw.Addr.Range.base r, Hw.Addr.Range.len r))
          (Tyche.Domain.measured_ranges dom)
      in
      let dels =
        List.filter_map
          (fun d ->
            match d.Fleet.del_state with
            | Fleet.Active ->
              Some (d.Fleet.del_peer, d.Fleet.del_base, d.Fleet.del_len, d.Fleet.del_rights)
            | _ -> None)
          (dels_of_domain t src.sm_domain)
      in
      let domains = List.map Tyche.Domain.id (Tyche.Monitor.domains m) in
      (match
         Tyche.Monitor.attest_batch m ~caller:Tyche.Domain.initial ~domains
           ~nonce:("migrate:" ^ src.sm_mig)
       with
      | Error e -> Error (Monitor_error e)
      | Ok atts ->
        (match List.find_opt (fun a -> a.Tyche.Attestation.domain = src.sm_domain) atts with
        | None -> Error (Refused "domain missing from batch attestation")
        | Some att ->
          let root = Crypto.Sha256.to_raw att.Tyche.Attestation.evidence.batch_root in
          let entry = Option.value (Tyche.Domain.entry_point dom) ~default:(-1) in
          let state =
            state_digest ~name:(Tyche.Domain.name dom)
              ~kind:(Tyche.Domain.kind_to_code (Tyche.Domain.kind dom))
              ~entry ~flush:(Tyche.Domain.flush_on_transition dom)
              ~measurement:(Crypto.Sha256.to_raw meas) ~caps ~measured
          in
          let image = image_digest ~state ~pages in
          let mf =
            { Wire.mf_name = Tyche.Domain.name dom;
              mf_kind = Tyche.Domain.kind_to_code (Tyche.Domain.kind dom);
              mf_entry = entry;
              mf_flush = Tyche.Domain.flush_on_transition dom;
              mf_measurement = Crypto.Sha256.to_raw meas;
              mf_caps = caps;
              mf_measured = measured;
              mf_pages = pages;
              mf_dels = dels;
              mf_att = Tyche.Attestation.to_wire att;
              mf_root = root;
              mf_state = state;
              mf_image = image }
          in
          src.sm_pages <- bytes_by_hash;
          src.sm_manifest <- Some mf;
          Ok mf)))

(* --- source: admission and start --------------------------------------- *)

let remote_domain_ids m =
  List.filter_map
    (fun d ->
      if Tyche.Domain.kind d = Tyche.Domain.Remote then Some (Tyche.Domain.id d) else None)
    (Tyche.Monitor.domains m)

let admit_source t ~domain =
  let m = monitor t in
  match Tyche.Monitor.find_domain m domain with
  | None -> Error (Monitor_error (Tyche.Monitor.Unknown_domain domain))
  | Some dom ->
    if domain = Tyche.Domain.initial then Error (Refused "domain 0 cannot migrate")
    else if Tyche.Domain.kind dom = Tyche.Domain.Remote then
      Error (Refused "a remote proxy cannot migrate")
    else if not (Tyche.Domain.is_sealed dom) then
      Error (Refused "only sealed domains migrate")
    else if Tyche.Monitor.domain_frozen m ~domain then
      Error (Refused "domain is already mid-migration")
    else begin
      let tree = Tyche.Monitor.tree m in
      let remotes = remote_domain_ids m in
      let ranges =
        List.filter_map
          (fun cap ->
            match Cap.Captree.resource tree cap with
            | Some (Cap.Resource.Memory r) -> Some r
            | _ -> None)
          (Cap.Captree.caps_of_domain tree domain)
      in
      (* Exclusive up to fleet delegations: a local co-holder could
         mutate the image mid-transfer and cannot be re-homed. *)
      let foreign =
        List.exists
          (fun r ->
            List.exists
              (fun h -> h <> domain && not (List.mem h remotes))
              (Cap.Captree.holders tree (Cap.Resource.Memory r)))
          ranges
      in
      (* A pending cross-machine revocation overlapping the domain's
         holdings could revoke bytes out from under the stream. *)
      let pending =
        List.exists
          (fun cap ->
            match Cap.Captree.resource tree cap with
            | Some (Cap.Resource.Memory pr) ->
              List.exists (fun r -> Hw.Addr.Range.overlaps pr r) ranges
            | _ -> false)
          (Fleet.pending_revokes t.fleet)
      in
      if foreign then Error (Refused "memory is shared with a local domain")
      else if pending then Error (Refused "overlaps a pending cross-machine revocation")
      else Ok dom
    end

let offer_hashes mf =
  List.sort_uniq compare (List.map (fun (_, _, h) -> h) mf.Wire.mf_pages)

let send_offer t src =
  match src.sm_manifest with
  | None -> ()
  | Some mf ->
    if try_send t ~peer:src.sm_peer (Wire.Offer { mig = src.sm_mig; hashes = offer_hashes mf })
    then src.sm_offered <- true

let start t ~domain ~peer =
  let m = monitor t in
  let* dom = admit_source t ~domain in
  let mig = Printf.sprintf "%s:%d" (Fleet.endpoint_name t.fleet) t.counter in
  t.counter <- t.counter + 1;
  jput t (MS_begin { mig; domain; peer; name = Tyche.Domain.name dom });
  jsync t;
  match Tyche.Monitor.freeze_domain m ~domain with
  | Error e ->
    jput t (MS_abort { mig; reason = "freeze refused" });
    jsync t;
    Error (Monitor_error e)
  | Ok () ->
    let src =
      { sm_mig = mig; sm_domain = domain; sm_peer = peer;
        sm_name = Tyche.Domain.name dom; sm_phase = S_streaming; sm_offered = false;
        sm_need_seen = false; sm_prior_images = []; sm_commit_due = false;
        sm_abort_due = false; sm_pages = []; sm_todo = []; sm_inflight = [];
        sm_manifest = None }
    in
    (match build_manifest t src with
    | Error e ->
      jput t (MS_abort { mig; reason = "manifest build failed" });
      jsync t;
      ignore (Tyche.Monitor.thaw_domain m ~domain);
      Error e
    | Ok _ ->
      let image =
        match src.sm_manifest with Some mf -> mf.Wire.mf_image | None -> ""
      in
      jput t (MS_frozen { mig; image });
      jsync t;
      Hashtbl.replace t.srcs mig src;
      Obs.Metrics.incr started_c;
      send_offer t src;
      update_active t;
      Ok mig)

(* --- source: streaming ------------------------------------------------- *)

(* Final must trail every chunk: the fleet channel is FIFO, so waiting
   for the target's Need (and for every streamed chunk's ack) before
   posting Final guarantees the manifest never outruns its chunks. *)
let maybe_final t src =
  if
    src.sm_need_seen && src.sm_todo = [] && src.sm_inflight = []
    && src.sm_phase = S_streaming
  then begin
    match src.sm_manifest with
    | Some mf ->
      if post t ~peer:src.sm_peer (Wire.Final { mig = src.sm_mig; manifest = mf }) then ();
      src.sm_phase <- S_await_receipt
    | None -> ()
  end

(* Unacked chunks a source streams at a time. *)
let window = 4

let pump t src =
  let rec go () =
    if List.length src.sm_inflight < window then
      match src.sm_todo with
      | [] -> ()
      | h :: rest ->
        src.sm_todo <- rest;
        (match List.assoc_opt h src.sm_pages with
        | None -> go () (* not ours; target asked for a stale hash *)
        | Some bytes ->
          src.sm_inflight <- h :: src.sm_inflight;
          Obs.Metrics.incr chunks_tx_c;
          ignore (post t ~peer:src.sm_peer (Wire.Chunk { mig = src.sm_mig; hash = h; bytes }));
          go ())
  in
  go ();
  maybe_final t src

(* --- source: abort ----------------------------------------------------- *)

let source_abort t src ~reason ~notify =
  if not (terminal_src src) then begin
    crash_abort t.store;
    jput t (MS_abort { mig = src.sm_mig; reason });
    jsync t;
    (match Tyche.Monitor.find_domain (monitor t) src.sm_domain with
    | Some _ -> ignore (Tyche.Monitor.thaw_domain (monitor t) ~domain:src.sm_domain)
    | None -> ());
    src.sm_phase <- S_aborted reason;
    Obs.Metrics.incr aborted_c;
    if notify then ignore (post t ~peer:src.sm_peer (Wire.Abort { mig = src.sm_mig; reason }));
    update_active t
  end

(* --- source: commit ---------------------------------------------------- *)

let finish_commit t src =
  let m = monitor t in
  crash_commit t.store;
  let proxy_name = "remote:" ^ src.sm_peer ^ ":" ^ src.sm_name in
  let destroy_ok =
    match Tyche.Monitor.find_domain m src.sm_domain with
    | None -> true (* already destroyed by a pre-crash attempt *)
    | Some dom ->
      (* The domain must not be the proxy we are about to create (resumed
         run) — ids never alias names, so a name check suffices. *)
      let caller =
        Option.value (Tyche.Domain.created_by dom) ~default:Tyche.Domain.initial
      in
      ignore (Tyche.Monitor.thaw_domain m ~domain:src.sm_domain);
      (match Tyche.Monitor.destroy_domain m ~caller ~domain:src.sm_domain with
      | Ok () -> true
      | Error _ -> false)
  in
  if not destroy_ok then
    (* The local copy could not be retired; the target has not been told
       to go live, so aborting keeps exactly one copy runnable. *)
    source_abort t src ~reason:"local destroy failed" ~notify:true
  else begin
    let exists =
      List.exists
        (fun d -> Tyche.Domain.name d = proxy_name)
        (Tyche.Monitor.domains m)
    in
    if not exists then
      ignore
        (Tyche.Monitor.create_domain m ~caller:Tyche.Domain.initial ~name:proxy_name
           ~kind:Tyche.Domain.Remote);
    jput t (MS_done { mig = src.sm_mig });
    jsync t;
    ignore (post t ~peer:src.sm_peer (Wire.Commit { mig = src.sm_mig }));
    src.sm_phase <- S_done;
    Obs.Metrics.incr committed_c;
    update_active t
  end

(* Idempotent; re-entered from tick until the re-homed delegations'
   remote acks all land. *)
let advance_commit t src =
  match Tyche.Monitor.find_domain (monitor t) src.sm_domain with
  | None -> finish_commit t src
  | Some _ ->
    let dels = dels_of_domain t src.sm_domain in
    List.iter
      (fun d ->
        if d.Fleet.del_state = Fleet.Active then
          ignore (Fleet.revoke t.fleet ~caller:src.sm_domain ~cap:d.Fleet.proxy_cap))
      dels;
    let blocking =
      List.exists (fun d -> d.Fleet.del_state <> Fleet.Revoked) (dels_of_domain t src.sm_domain)
    in
    if not blocking then finish_commit t src

let on_receipt t src image =
  match src.sm_phase with
  | S_await_receipt | S_streaming ->
    let expected =
      match src.sm_manifest with Some mf -> mf.Wire.mf_image | None -> ""
    in
    (* A receipt for an image journaled by a pre-crash life of this
       migration is equally binding: the target's adopted copy carries
       the pre-crash content, which this machine no longer holds. *)
    if image <> expected && not (List.mem image src.sm_prior_images) then
      source_abort t src ~reason:"receipt digest mismatch" ~notify:true
    else begin
      crash_commit t.store;
      jput t (MS_receipt { mig = src.sm_mig; image });
      jput t (MS_committing { mig = src.sm_mig });
      jsync t;
      src.sm_phase <- S_committing;
      advance_commit t src
    end
  | S_done ->
    (* A duplicate receipt after commit means the target never saw the
       Commit (e.g. it died in flight across a target restart): answer
       it again. The target absorbs duplicate Commits. *)
    src.sm_commit_due <- true
  | S_committing | S_aborted _ -> () (* duplicate receipt *)

(* --- target: adoption -------------------------------------------------- *)

(* Verify the receipt chain before any monitor mutation: measurement,
   batch-root binding, Merkle inclusion of the domain's attestation in
   the source's pre-migration batch-attest root, root signature when the
   source's key is installed, and region agreement between the signed
   attestation and the manifest. *)
let verify_manifest t ?pinned_root ~origin (mf : Wire.manifest) =
  match Tyche.Attestation.of_wire mf.Wire.mf_att with
  | Error e -> Error ("attestation unparseable: " ^ e)
  | Ok att ->
    if att.Tyche.Attestation.measurement <> Some (Crypto.Sha256.of_raw mf.mf_measurement)
    then Error "measurement mismatch between manifest and attestation"
    else (
      let { Tyche.Attestation.batch_root; proof; _ } = att.evidence in
      if Crypto.Sha256.to_raw batch_root <> mf.mf_root then
        Error "attestation batch root does not match transfer root"
      else if
        not
          (Crypto.Merkle.verify ~root:batch_root
             ~leaf:(Crypto.Sha256.string (Tyche.Attestation.payload att))
             proof)
      then Error "attestation not included in transfer root"
      else (
        let root =
          match pinned_root with
          | Some _ -> pinned_root
          | None -> Hashtbl.find_opt t.peer_roots origin
        in
        match root with
        | Some root when not (Tyche.Attestation.verify ~monitor_root:root att) ->
          Error "transfer root signature rejected"
        | _ ->
          (* Region agreement: the attested memory footprint covers
             exactly the manifest's capability set. *)
          let att_ranges =
            List.map
              (fun r ->
                ( Hw.Addr.Range.base r.Tyche.Attestation.range,
                  Hw.Addr.Range.len r.Tyche.Attestation.range ))
              att.Tyche.Attestation.regions
            |> List.sort compare
          in
          let cover ranges =
            (* Merge sorted (base, len) into maximal extents. *)
            List.fold_left
              (fun acc (b, l) ->
                match acc with
                | (pb, pl) :: rest when pb + pl = b -> (pb, pl + l) :: rest
                | _ -> (b, l) :: acc)
              [] (List.sort compare ranges)
            |> List.rev
          in
          let mf_ranges = List.map (fun (b, l, _, _) -> (b, l)) mf.mf_caps in
          if cover att_ranges <> cover mf_ranges then
            Error "attested regions disagree with manifest capabilities"
          else Ok att))

let adopt_cleanup m domain =
  ignore (Tyche.Monitor.thaw_domain m ~domain);
  match Tyche.Monitor.find_domain m domain with
  | None -> ()
  | Some dom ->
    let caller = Option.value (Tyche.Domain.created_by dom) ~default:Tyche.Domain.initial in
    ignore (Tyche.Monitor.destroy_domain m ~caller ~domain)

(* The manifest's caps with their codes decoded, or [None] if any cap
   or delegation carries an unknown rights or clean-up code. Decoding
   is strict and happens before anything is applied, so such a manifest
   is refused up front instead of failing the post-adoption digest
   check after carves, grants and page writes. *)
let manifest_caps (mf : Wire.manifest) =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (base, len, rights, cleanup) :: rest -> (
      match (Cap.Rights.of_bits rights, Cap.Revocation.of_code cleanup) with
      | Some rights, Some cleanup -> go ((base, len, rights, cleanup) :: acc) rest
      | _ -> None)
  in
  if List.exists (fun (_, _, _, rights) -> Cap.Rights.of_bits rights = None) mf.mf_dels
  then None
  else go [] mf.mf_caps

(* Reassemble the domain through the public logged API, so the target's
   own WAL replays the whole adoption. *)
let adopt t tg (mf : Wire.manifest) =
  let m = monitor t in
  let os_ = Tyche.Domain.initial in
  let tree = Tyche.Monitor.tree m in
  let mem = (Tyche.Monitor.machine m).Hw.Machine.mem in
  let fail_mon e = Error (Tyche.Monitor.error_to_string e) in
  (* Admission. *)
  let missing =
    List.filter (fun (_, _, h) -> not (Hashtbl.mem t.chunks h)) mf.mf_pages
  in
  if missing <> [] then Error "chunks missing from the durable store"
  else if List.exists (fun d -> Tyche.Domain.name d = mf.mf_name) (Tyche.Monitor.domains m)
  then Error ("domain name already in use: " ^ mf.mf_name)
  else if
    not
      (List.for_all
         (fun (base, len, _, _) ->
           let r = Cap.Resource.Memory (Hw.Addr.Range.make ~base ~len) in
           Cap.Captree.holders tree r = [ os_ ])
         mf.mf_caps)
  then Error "target ranges are not exclusively held by the OS"
  else (
    match verify_manifest t ~origin:tg.tm_origin mf with
    | Error e -> Error e
    | Ok _att ->
      (match (Tyche.Domain.kind_of_code mf.mf_kind, manifest_caps mf) with
      | (None | Some Tyche.Domain.Os | Some Tyche.Domain.Remote), _ ->
        Error "manifest names an inadmissible domain kind"
      | Some _, None -> Error "manifest carries an unknown rights or clean-up code"
      | Some kind, Some caps ->
        jput t (MT_adopting { mig = tg.tm_mig });
        jsync t;
        let result =
          let* domain =
            Result.map_error Tyche.Monitor.error_to_string
              (Tyche.Monitor.create_domain m ~caller:os_ ~name:mf.mf_name ~kind)
          in
          let rec caps_loop = function
            | [] -> Ok ()
            | (base, len, rights, cleanup) :: rest ->
              let range = Hw.Addr.Range.make ~base ~len in
              let donor =
                List.find_opt
                  (fun cap ->
                    Cap.Captree.owner tree cap = Some os_
                    &&
                    match Cap.Captree.resource tree cap with
                    | Some (Cap.Resource.Memory r) ->
                      Hw.Addr.Range.includes ~outer:r ~inner:range
                    | _ -> false)
                  (Cap.Captree.caps_of_domain tree os_)
              in
              (match donor with
              | None -> Error "no OS capability covers an adopted range"
              | Some cap ->
                (match Tyche.Monitor.carve m ~caller:os_ ~cap ~subrange:range with
                | Error e -> fail_mon e
                | Ok piece ->
                  (match
                     Tyche.Monitor.grant m ~caller:os_ ~cap:piece ~to_:domain ~rights
                       ~cleanup
                   with
                  | Error e -> fail_mon e
                  | Ok _ -> caps_loop rest)))
          in
          let* () = caps_loop caps in
          List.iter
            (fun (base, _, h) -> Hw.Physmem.write mem base (Hashtbl.find t.chunks h))
            mf.mf_pages;
          let rec measured_loop = function
            | [] -> Ok ()
            | (base, len) :: rest ->
              (match
                 Tyche.Monitor.mark_measured m ~caller:os_ ~domain
                   (Hw.Addr.Range.make ~base ~len)
               with
              | Error e -> fail_mon e
              | Ok () -> measured_loop rest)
          in
          let* () = measured_loop mf.mf_measured in
          let* () =
            if mf.mf_entry < 0 then Ok ()
            else
              Result.map_error Tyche.Monitor.error_to_string
                (Tyche.Monitor.set_entry_point m ~caller:os_ ~domain mf.mf_entry)
          in
          let* () =
            Result.map_error Tyche.Monitor.error_to_string
              (Tyche.Monitor.set_flush_policy m ~caller:os_ ~domain mf.mf_flush)
          in
          let* () =
            Result.map_error Tyche.Monitor.error_to_string
              (Tyche.Monitor.adopt_seal m ~caller:os_ ~domain
                 ~measurement:(Crypto.Sha256.of_raw mf.mf_measurement))
          in
          Tyche.Monitor.flush m;
          let* () =
            Result.map_error Tyche.Monitor.error_to_string
              (Tyche.Monitor.freeze_domain m ~domain)
          in
          (* The commit ack is only sent over a verified reassembly. *)
          let* () =
            match local_digests m domain with
            | Some (state, image)
              when state = mf.mf_state && image = mf.mf_image -> Ok ()
            | Some _ -> Error "portable digest mismatch after adoption"
            | None -> Error "adopted domain unreadable"
          in
          let report = Tyche.Fsck.check m in
          if not (Tyche.Fsck.ok report) then Error "fsck rejected the adopted state"
          else Ok domain
        in
        (match result with
        | Error reason ->
          (* Undo the partial reassembly before reporting. *)
          (match
             List.find_opt (fun d -> Tyche.Domain.name d = mf.mf_name) (Tyche.Monitor.domains m)
           with
          | Some d -> adopt_cleanup m (Tyche.Domain.id d)
          | None -> ());
          Error reason
        | Ok domain ->
          let root =
            match Hashtbl.find_opt t.peer_roots tg.tm_origin with
            | Some r -> Crypto.Sha256.to_raw r
            | None -> ""
          in
          jput t (MT_adopted { mig = tg.tm_mig; domain; root });
          jsync t;
          if root <> "" then tg.tm_root <- Some root;
          tg.tm_phase <- T_adopted domain;
          tg.tm_adopt_due <- false;
          tg.tm_receipt_due <- true;
          Ok domain)))

let target_abort t tg ~reason ~notify =
  if not (terminal_tgt tg) then begin
    crash_abort t.store;
    jput t (MT_abort { mig = tg.tm_mig; reason });
    jsync t;
    (match tg.tm_phase with
    | T_adopted domain -> adopt_cleanup (monitor t) domain
    | _ -> ());
    tg.tm_phase <- T_aborted reason;
    Obs.Metrics.incr aborted_c;
    if notify then ignore (post t ~peer:tg.tm_origin (Wire.Abort { mig = tg.tm_mig; reason }));
    update_active t
  end

let run_adopt t tg =
  match tg.tm_manifest with
  | None -> ()
  | Some mf ->
    if tg.tm_cleanup then begin
      (match
         List.find_opt (fun d -> Tyche.Domain.name d = mf.Wire.mf_name)
           (Tyche.Monitor.domains (monitor t))
       with
      | Some d -> adopt_cleanup (monitor t) (Tyche.Domain.id d)
      | None -> ());
      tg.tm_cleanup <- false
    end;
    (match adopt t tg mf with
    | Ok _ ->
      if try_send t ~peer:tg.tm_origin (Wire.Receipt { mig = tg.tm_mig; image = mf.Wire.mf_image })
      then tg.tm_receipt_due <- false;
      update_active t
    | Error reason -> target_abort t tg ~reason ~notify:true)

(* --- target: re-delegation after commit -------------------------------- *)

let existing_delegation t ~peer ~base ~len =
  List.exists
    (fun d -> d.Fleet.del_peer = peer && d.Fleet.del_base = base && d.Fleet.del_len = len)
    (Fleet.delegations t.fleet)

let try_redelegate t tg domain =
  let m = monitor t in
  let tree = Tyche.Monitor.tree m in
  tg.tm_redelegate <-
    List.filter
      (fun (peer, base, len, rights) ->
        if existing_delegation t ~peer ~base ~len then false
        else
          let range = Hw.Addr.Range.make ~base ~len in
          let cap =
            List.find_opt
              (fun c ->
                match Cap.Captree.resource tree c with
                | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.includes ~outer:r ~inner:range
                | _ -> false)
              (Cap.Captree.caps_of_domain tree domain)
          in
          match (cap, Cap.Rights.of_bits rights) with
          | None, _ -> false (* range no longer held; drop the entry *)
          | _, None -> false (* unreachable: [adopt] refused unknown rights *)
          | Some cap, Some rights ->
            (match
               Fleet.delegate t.fleet ~caller:domain ~cap ~peer ~subrange:range ~rights ()
             with
            | Ok _ -> false
            | Error _ -> true (* peer not connected yet; retry on tick *)))
      tg.tm_redelegate

let on_commit t tg =
  match tg.tm_phase with
  | T_adopted domain ->
    jput t (MT_live { mig = tg.tm_mig });
    jsync t;
    ignore (Tyche.Monitor.thaw_domain (monitor t) ~domain);
    tg.tm_phase <- T_live domain;
    (match tg.tm_manifest with
    | Some mf ->
      (* A delegation whose peer is this endpoint collapses to
         locality: the remote holder just became the local host. *)
      tg.tm_redelegate <-
        List.filter
          (fun (peer, _, _, _) -> peer <> Fleet.endpoint_name t.fleet)
          mf.Wire.mf_dels;
      try_redelegate t tg domain
    | None -> ());
    update_active t
  | T_live _ | T_receiving | T_aborted _ -> ()

(* --- inbound frame dispatch -------------------------------------------- *)

let ensure_tgt t ~origin mig =
  match Hashtbl.find_opt t.tgts mig with
  | Some tg -> tg
  | None ->
    jput t (MT_begin { mig; origin });
    jsync t;
    let tg =
      { tm_mig = mig; tm_origin = origin; tm_phase = T_receiving; tm_manifest = None;
        tm_adopt_due = false; tm_cleanup = false; tm_receipt_due = false;
        tm_root = None; tm_redelegate = [] }
    in
    Hashtbl.replace t.tgts mig tg;
    update_active t;
    tg

let store_chunk t hash bytes =
  if Hashtbl.mem t.chunks hash then Obs.Metrics.incr dedup_c
  else begin
    crash_chunk t.store;
    jput t (MT_chunk { hash; bytes });
    jsync t;
    Hashtbl.replace t.chunks hash bytes;
    Obs.Metrics.incr chunks_rx_c
  end

let handle t origin payload =
  match Wire.decode_frame payload with
  | Error _ -> Obs.Metrics.incr reject_c
  | Ok frame -> (
    match frame with
    | Wire.Offer { mig; hashes } ->
      let tg = ensure_tgt t ~origin mig in
      (match tg.tm_phase with
      | T_adopted _ ->
        (* Already parked a verified copy; a re-offer (resumed source)
           only needs the receipt re-bound, never a re-stream. *)
        List.iter (fun _ -> Obs.Metrics.incr dedup_c)
          (List.filter (fun h -> Hashtbl.mem t.chunks h) hashes);
        tg.tm_receipt_due <- true
      | T_receiving ->
        let missing = List.filter (fun h -> not (Hashtbl.mem t.chunks h)) hashes in
        List.iter (fun _ -> Obs.Metrics.incr dedup_c)
          (List.filter (fun h -> Hashtbl.mem t.chunks h) hashes);
        ignore (post t ~peer:origin (Wire.Need { mig; hashes = missing }))
      | T_live _ | T_aborted _ -> ())
    | Wire.Need { mig; hashes } -> (
      match Hashtbl.find_opt t.srcs mig with
      | None -> Obs.Metrics.incr reject_c
      | Some src ->
        if src.sm_phase = S_streaming then begin
          src.sm_need_seen <- true;
          src.sm_todo <-
            List.filter (fun h -> not (List.mem h src.sm_inflight)) hashes;
          pump t src
        end)
    | Wire.Chunk { mig; hash; bytes } ->
      let tg = ensure_tgt t ~origin mig in
      if not (terminal_tgt tg) then begin
        if sha_raw bytes <> hash then
          target_abort t tg ~reason:"chunk content does not match its hash" ~notify:true
        else begin
          store_chunk t hash bytes;
          ignore (post t ~peer:origin (Wire.Chunk_ack { mig; hash }))
        end
      end
    | Wire.Chunk_ack { mig; hash } -> (
      match Hashtbl.find_opt t.srcs mig with
      | None -> ()
      | Some src ->
        src.sm_inflight <- List.filter (fun h -> h <> hash) src.sm_inflight;
        if src.sm_phase = S_streaming then pump t src)
    | Wire.Final { mig; manifest } ->
      let tg = ensure_tgt t ~origin mig in
      (match tg.tm_phase with
      | T_receiving ->
        (* A re-offered migration may replace a stale manifest (the
           resumed source has a fresh signer); digests are unchanged. *)
        jput t (MT_final { mig; manifest = Wire.encode_manifest manifest });
        jsync t;
        tg.tm_manifest <- Some manifest;
        run_adopt t tg
      | T_adopted _ ->
        (* Duplicate Final after a crash window: receipt again. *)
        tg.tm_receipt_due <- true
      | T_live _ | T_aborted _ -> ())
    | Wire.Receipt { mig; image } -> (
      match Hashtbl.find_opt t.srcs mig with
      | None -> Obs.Metrics.incr reject_c
      | Some src -> on_receipt t src image)
    | Wire.Commit { mig } -> (
      match Hashtbl.find_opt t.tgts mig with
      | None -> Obs.Metrics.incr reject_c
      | Some tg -> on_commit t tg)
    | Wire.Abort { mig; reason } -> (
      match (Hashtbl.find_opt t.srcs mig, Hashtbl.find_opt t.tgts mig) with
      | Some src, _ -> source_abort t src ~reason:("peer: " ^ reason) ~notify:false
      | None, Some tg -> target_abort t tg ~reason:("peer: " ^ reason) ~notify:false
      | None, None -> ()))

(* --- driver ------------------------------------------------------------ *)

let tick t =
  (* Flush deferred frames first: sessions may have come back. *)
  let n = Queue.length t.deferred in
  for _ = 1 to n do
    let peer, frame = Queue.take t.deferred in
    if not (try_send t ~peer frame) then Queue.add (peer, frame) t.deferred
  done;
  Hashtbl.iter
    (fun _ src ->
      match src.sm_phase with
      | S_streaming ->
        if not src.sm_offered then send_offer t src else maybe_final t src
      | S_committing -> advance_commit t src
      | S_done ->
        if src.sm_commit_due then begin
          if try_send t ~peer:src.sm_peer (Wire.Commit { mig = src.sm_mig }) then
            src.sm_commit_due <- false
        end
      | S_aborted reason ->
        if src.sm_abort_due then begin
          if try_send t ~peer:src.sm_peer (Wire.Abort { mig = src.sm_mig; reason }) then
            src.sm_abort_due <- false
        end
      | S_await_receipt -> ())
    t.srcs;
  Hashtbl.iter
    (fun _ tg ->
      match tg.tm_phase with
      | T_receiving -> if tg.tm_adopt_due then run_adopt t tg
      | T_adopted _ ->
        if tg.tm_receipt_due then begin
          match tg.tm_manifest with
          | Some mf ->
            if
              try_send t ~peer:tg.tm_origin
                (Wire.Receipt { mig = tg.tm_mig; image = mf.Wire.mf_image })
            then tg.tm_receipt_due <- false
          | None -> ()
        end
      | T_live domain -> if tg.tm_redelegate <> [] then try_redelegate t tg domain
      | T_aborted _ -> ())
    t.tgts

(* --- recovery ---------------------------------------------------------- *)

(* Fold the journal into the phase each migration had durably reached.
   [attach] then re-establishes the volatile side: freeze latches, page
   maps, manifests, due-flags for the messages whose sends may have been
   lost with the crash. *)
type src_replay = {
  mutable r_domain : int;
  mutable r_peer : string;
  mutable r_name : string;
  mutable r_receipt : bool;
  mutable r_committing : bool;
  mutable r_done : bool;
  mutable r_abort : string option;
  mutable r_images : string list;
}

type tgt_replay = {
  mutable r_origin : string;
  mutable r_manifest : string option;
  mutable r_adopting : bool;
  mutable r_adopted : int option;
  mutable r_live : bool;
  mutable r_tabort : string option;
  mutable r_root : string option;
}

let resume_source t mig (r : src_replay) =
  let m = monitor t in
  let src =
    { sm_mig = mig; sm_domain = r.r_domain; sm_peer = r.r_peer; sm_name = r.r_name;
      sm_phase = S_streaming; sm_offered = false; sm_need_seen = false;
      sm_prior_images = r.r_images; sm_commit_due = false; sm_abort_due = false;
      sm_pages = []; sm_todo = []; sm_inflight = []; sm_manifest = None }
  in
  Hashtbl.replace t.srcs mig src;
  let aborted reason =
    src.sm_phase <- S_aborted reason;
    (* The Abort frame may have died with the crash, and an abort taken
       here has not sent one; the target absorbs duplicates and ignores
       a migration it never heard of. *)
    src.sm_abort_due <- true
  in
  (match r.r_abort with
  | Some reason -> aborted reason
  | None ->
    if r.r_done then begin
      src.sm_phase <- S_done;
      (* The Commit frame may have died with the crash; the target
         absorbs duplicates. *)
      src.sm_commit_due <- true
    end
    else begin
      Obs.Metrics.incr resumed_c;
      if Tyche.Monitor.find_domain m r.r_domain = None then
        if r.r_committing then begin
          (* Crashed between destroy and MS_done: finish the swap. *)
          src.sm_phase <- S_committing;
          advance_commit t src
        end
        else begin
          jput t (MS_abort { mig; reason = "domain lost across restart" });
          jsync t;
          aborted "domain lost across restart"
        end
      else begin
        ignore (Tyche.Monitor.freeze_domain m ~domain:r.r_domain);
        match build_manifest t src with
        | Error _ ->
          jput t (MS_abort { mig; reason = "manifest rebuild failed" });
          jsync t;
          ignore (Tyche.Monitor.thaw_domain m ~domain:r.r_domain);
          aborted "manifest rebuild failed"
        | Ok _ ->
          if r.r_committing || r.r_receipt then begin
            src.sm_phase <- S_committing;
            advance_commit t src
          end
          else begin
            (* Re-offer; the target's durable chunks dedup the re-send.
               The send itself waits for the session re-key. Journal the
               rebuilt image too, so a second crash still honours a
               receipt the target binds to this offer. *)
            (match src.sm_manifest with
            | Some mf when not (List.mem mf.Wire.mf_image src.sm_prior_images) ->
              jput t (MS_frozen { mig; image = mf.Wire.mf_image });
              jsync t;
              src.sm_prior_images <- mf.Wire.mf_image :: src.sm_prior_images
            | _ -> ());
            src.sm_phase <- S_streaming
          end
      end
    end)

let resume_target t mig (r : tgt_replay) =
  let m = monitor t in
  let tg =
    { tm_mig = mig; tm_origin = r.r_origin; tm_phase = T_receiving; tm_manifest = None;
      tm_adopt_due = false; tm_cleanup = false; tm_receipt_due = false;
      tm_root = r.r_root; tm_redelegate = [] }
  in
  Hashtbl.replace t.tgts mig tg;
  (match r.r_manifest with
  | Some s -> (match Wire.decode_manifest s with Ok mf -> tg.tm_manifest <- Some mf | Error _ -> ())
  | None -> ());
  match r.r_tabort with
  | Some reason ->
    (* [target_abort] makes the abort durable before [adopt_cleanup]
       destroys the copy through logged calls: a crash in between
       leaves the copy behind, so finish the clean-up (safe to run
       again: it does nothing once the domain is gone). *)
    Option.iter (adopt_cleanup m) r.r_adopted;
    tg.tm_phase <- T_aborted reason
  | None -> (
    match (r.r_live, r.r_adopted) with
    | true, Some domain ->
      tg.tm_phase <- T_live domain;
      (* Re-delegations may have been cut short; rebuild the remainder
         from the manifest, minus what the fleet journal already has
         (the [existing_delegation] filter in {!try_redelegate}). *)
      (match tg.tm_manifest with
      | Some mf ->
        tg.tm_redelegate <-
          List.filter
            (fun (peer, _, _, _) -> peer <> Fleet.endpoint_name t.fleet)
            mf.Wire.mf_dels
      | None -> ())
    | _, Some domain when Tyche.Monitor.find_domain m domain <> None ->
      Obs.Metrics.incr resumed_c;
      (* Adopted but not yet live: the image bytes are volatile — put
         them back from the durable chunk store, re-freeze, and stand
         ready to re-send the receipt. *)
      (match tg.tm_manifest with
      | Some mf ->
        let mem = (Tyche.Monitor.machine m).Hw.Machine.mem in
        List.iter
          (fun (base, _, h) ->
            match Hashtbl.find_opt t.chunks h with
            | Some bytes -> Hw.Physmem.write mem base bytes
            | None -> ())
          mf.Wire.mf_pages
      | None -> ());
      ignore (Tyche.Monitor.freeze_domain m ~domain);
      tg.tm_phase <- T_adopted domain;
      tg.tm_receipt_due <- true
    | _, Some _ | _, None ->
      Obs.Metrics.incr resumed_c;
      (* Still receiving, or a partial adoption whose MT_adopted never
         became durable: clean up by name and re-run from the manifest
         when present; otherwise wait for the source to re-offer. *)
      tg.tm_cleanup <- r.r_adopting;
      tg.tm_adopt_due <- tg.tm_manifest <> None)

let attach ~fleet ~store =
  let t =
    { fleet; store; jseq = 0; chunks = Hashtbl.create 64;
      srcs = Hashtbl.create 4; tgts = Hashtbl.create 4; counter = 0;
      peer_roots = Hashtbl.create 4; deferred = Queue.create () }
  in
  Fleet.set_data_handler fleet ~chan:migrate_blob (fun origin payload ->
      handle t origin payload);
  let { Persist.Wal.records; valid_bytes; truncated; _ } =
    Persist.Wal.read store ~blob:migrate_blob
  in
  (* A crash can leave a torn frame at the end of the blob; anything
     appended after it would be invisible to the longest-valid-prefix
     read of the NEXT recovery. Cut the journal back to its valid
     prefix, atomically, before any new record lands behind the tear. *)
  if truncated then Persist.Store.truncate store migrate_blob valid_bytes;
  let srcs : (string, src_replay) Hashtbl.t = Hashtbl.create 4 in
  let tgts : (string, tgt_replay) Hashtbl.t = Hashtbl.create 4 in
  let src_order = ref [] and tgt_order = ref [] in
  let src_of mig =
    match Hashtbl.find_opt srcs mig with
    | Some r -> r
    | None ->
      let r =
        { r_domain = -1; r_peer = ""; r_name = ""; r_receipt = false;
          r_committing = false; r_done = false; r_abort = None; r_images = [] }
      in
      Hashtbl.replace srcs mig r;
      src_order := mig :: !src_order;
      r
  in
  let tgt_of mig =
    match Hashtbl.find_opt tgts mig with
    | Some r -> r
    | None ->
      let r =
        { r_origin = ""; r_manifest = None; r_adopting = false; r_adopted = None;
          r_live = false; r_tabort = None; r_root = None }
      in
      Hashtbl.replace tgts mig r;
      tgt_order := mig :: !tgt_order;
      r
  in
  List.iter
    (fun (seq, payload) ->
      if seq > t.jseq then t.jseq <- seq;
      match decode_jrec payload with
      | None -> ()
      | Some (MS_begin { mig; domain; peer; name }) ->
        let r = src_of mig in
        r.r_domain <- domain;
        r.r_peer <- peer;
        r.r_name <- name;
        (* Reserve the id-space suffix so resumed endpoints never reuse
           a migration id. *)
        (match String.rindex_opt mig ':' with
        | Some i -> (
          match int_of_string_opt (String.sub mig (i + 1) (String.length mig - i - 1)) with
          | Some n when n >= t.counter -> t.counter <- n + 1
          | _ -> ())
        | None -> ())
      | Some (MS_frozen { mig; image }) ->
        let r = src_of mig in
        r.r_images <- image :: r.r_images
      | Some (MS_receipt { mig; _ }) -> (src_of mig).r_receipt <- true
      | Some (MS_committing { mig }) -> (src_of mig).r_committing <- true
      | Some (MS_done { mig }) -> (src_of mig).r_done <- true
      | Some (MS_abort { mig; reason }) -> (src_of mig).r_abort <- Some reason
      | Some (MT_begin { mig; origin }) -> (tgt_of mig).r_origin <- origin
      | Some (MT_chunk { hash; bytes }) -> Hashtbl.replace t.chunks hash bytes
      | Some (MT_final { mig; manifest }) -> (tgt_of mig).r_manifest <- Some manifest
      | Some (MT_adopting { mig }) -> (tgt_of mig).r_adopting <- true
      | Some (MT_adopted { mig; domain; root }) ->
        let r = tgt_of mig in
        r.r_adopted <- Some domain;
        if root <> "" then r.r_root <- Some root
      | Some (MT_live { mig }) -> (tgt_of mig).r_live <- true
      | Some (MT_abort { mig; reason }) -> (tgt_of mig).r_tabort <- Some reason)
    records;
  List.iter (fun mig -> resume_source t mig (Hashtbl.find srcs mig)) (List.rev !src_order);
  List.iter (fun mig -> resume_target t mig (Hashtbl.find tgts mig)) (List.rev !tgt_order);
  update_active t;
  t

(* --- public surface ---------------------------------------------------- *)

let set_peer_root t ~peer root = Hashtbl.replace t.peer_roots peer root

let abort t ~mig ~reason =
  match (Hashtbl.find_opt t.srcs mig, Hashtbl.find_opt t.tgts mig) with
  | Some src, _ ->
    source_abort t src ~reason ~notify:true;
    Ok ()
  | None, Some tg ->
    target_abort t tg ~reason ~notify:true;
    Ok ()
  | None, None -> Error (Unknown_migration mig)

let status t ~mig =
  match Hashtbl.find_opt t.srcs mig with
  | Some src -> Some (Source, src_phase src)
  | None -> (
    match Hashtbl.find_opt t.tgts mig with
    | Some tg -> Some (Target, tgt_phase tg)
    | None -> None)

let migrations t =
  let acc = ref [] in
  Hashtbl.iter (fun mig src -> acc := (mig, Source, src_phase src) :: !acc) t.srcs;
  Hashtbl.iter (fun mig tg -> acc := (mig, Target, tgt_phase tg) :: !acc) t.tgts;
  List.sort compare !acc

let idle t =
  Queue.is_empty t.deferred
  && Hashtbl.fold (fun _ s acc -> acc && terminal_src s) t.srcs true
  && Hashtbl.fold (fun _ tg acc -> acc && terminal_tgt tg) t.tgts true

let adopted_domain t ~mig =
  match Hashtbl.find_opt t.tgts mig with
  | Some { tm_phase = T_adopted d; _ } | Some { tm_phase = T_live d; _ } -> Some d
  | _ -> None

let proxy_domain t ~mig =
  match Hashtbl.find_opt t.srcs mig with
  | Some ({ sm_phase = S_done; _ } as src) ->
    let name = "remote:" ^ src.sm_peer ^ ":" ^ src.sm_name in
    List.find_map
      (fun d -> if Tyche.Domain.name d = name then Some (Tyche.Domain.id d) else None)
      (Tyche.Monitor.domains (monitor t))
  | _ -> None

let chunk_count t = Hashtbl.length t.chunks

type receipt = {
  rc_mig : string;
  rc_origin : Network.endpoint;
  rc_root : Crypto.Sha256.digest;
  rc_measurement : Crypto.Sha256.digest;
  rc_state : Crypto.Sha256.digest;
  rc_image : Crypto.Sha256.digest;
}

let receipt t ~mig =
  match Hashtbl.find_opt t.tgts mig with
  | Some ({ tm_manifest = Some mf; _ } as tg) ->
    Some
      { rc_mig = mig;
        rc_origin = tg.tm_origin;
        rc_root = Crypto.Sha256.of_raw mf.Wire.mf_root;
        rc_measurement = Crypto.Sha256.of_raw mf.Wire.mf_measurement;
        rc_state = Crypto.Sha256.of_raw mf.Wire.mf_state;
        rc_image = Crypto.Sha256.of_raw mf.Wire.mf_image }
  | _ -> None

let verify_receipt t ~mig =
  match Hashtbl.find_opt t.tgts mig with
  | Some ({ tm_manifest = Some mf; _ } as tg) -> (
    match tg.tm_phase with
    | T_adopted domain | T_live domain -> (
      (* The transferred attestation still chains to the transfer root —
         the one pinned at adoption, so a source that crash-recovered
         under a fresh signer cannot retroactively unbind the receipt. *)
      match
        verify_manifest t
          ?pinned_root:(Option.map Crypto.Sha256.of_raw tg.tm_root)
          ~origin:tg.tm_origin mf
      with
      | Error _ -> false
      | Ok _ -> (
        (* And the adopted domain still matches what was receipted. The
           content hash is only binding while the domain is parked — a
           live domain's memory is its own business. *)
        match local_digests (monitor t) domain with
        | Some (state, image) ->
          state = mf.Wire.mf_state
          && (match tg.tm_phase with
             | T_adopted _ -> image = mf.Wire.mf_image
             | _ -> true)
        | None -> false))
    | _ -> false)
  | _ -> false
