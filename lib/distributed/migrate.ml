(* Live domain migration over the fleet data plane.

   The protocol rides the ["migrate"] data channel of {!Fleet}, so
   sequencing, HMACs, the durable outbox, cumulative acks and capped
   retry are inherited rather than rebuilt. What this module adds:

   - content-addressed page transfer: the domain's memory is cut on the
     page grid, each piece shipped as [Chunk { hash; bytes }] and stored
     durably on the target keyed by hash — an [Offer] lists the hashes
     and the target's [Need] answers with only the ones it lacks, so a
     resumed migration never re-sends bytes the target already
     persisted, and zero pages collapse to one chunk;
   - crash resumption from the machine's one journal: migration records
     ride the fleet's journal ({!Fleet.append}), which [Persist.Group]
     writes, its barriers and its compaction. Every state a peer may act
     on is durable before the message that makes it meaningful leaves,
     so a crash-restart of either endpoint resumes mid-protocol or
     aborts cleanly — the source domain stays frozen-but-alive until
     the target's fsck-verified receipt, and exactly one monitor hosts
     the domain once the protocol drains;
   - the receipt chain: [Final] carries the domain's batch attestation
     and the Merkle root of the source's pre-migration batch-attest,
     plus portable digests of configuration and content. The target
     verifies measurement, Merkle inclusion, region agreement and —
     after adopting through the public logged monitor API — recomputes
     both digests from its own tree and memory before acking.

   Chunk bytes live in the journal with the state records, NOT in the
   checkpoint segment blob: the monitor's segment GC validates node-list
   payloads and would drop opaque page bytes on its next sweep. *)

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
  mutable sm_images : string list;
      (* Image digests of every manifest this migration offered, in any
         life. A receipt for any of them is acceptable: each was a
         genuine manifest of the frozen domain when offered, and after a
         crash the target's adopted copy may be the only one left with
         the pre-crash content. *)
  mutable sm_due : bool; (* The Commit or Abort notice is still owed. *)
  mutable sm_stamp : int;
  mutable sm_offered : bool; (* Offer acknowledged send since (re)start. *)
  mutable sm_need_seen : bool; (* The target answered with its Need. *)
  mutable sm_pages : (string * string) list; (* hash -> bytes, volatile. *)
  mutable sm_todo : string list;
  mutable sm_inflight : string list;
  mutable sm_manifest : Wire.manifest option;
}

type tgt_phase =
  | T_receiving
  | T_adopted of int
  | T_live of int
  | T_aborted of { reason : string; copy : int option }
      (* [copy] is the adopted domain the abort destroys, if there was
         one: a crash inside that clean-up is finished on recovery. *)

type tgt = {
  tm_mig : string;
  tm_origin : string;
  mutable tm_phase : tgt_phase;
  mutable tm_offered : string list; (* The newest Offer's hashes. *)
  mutable tm_manifest : Wire.manifest option;
  mutable tm_cleanup : bool; (* A partial adopt may exist; destroy it first. *)
  mutable tm_root : string option;
      (* Origin attestation root pinned at adoption (raw digest); the
         receipt verifies against it, not the mutable peer-root table. *)
  mutable tm_stamp : int;
  mutable tm_adopt_due : bool; (* Re-run adoption after recovery. *)
  mutable tm_receipt_due : bool;
  mutable tm_redelegate : (string * int * int * int) list;
}

type t = {
  fleet : Fleet.t;
  chunks : (string, string) Hashtbl.t; (* hash -> bytes, durable mirror. *)
  srcs : (string, src) Hashtbl.t;
  tgts : (string, tgt) Hashtbl.t;
  mutable counter : int;
  mutable stamp : int; (* Orders the state records, newest highest. *)
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
  | T_aborted { reason; _ } -> Aborted reason

let terminal_src s = match s.sm_phase with S_done | S_aborted _ -> true | _ -> false
let terminal_tgt tg = match tg.tm_phase with T_live _ | T_aborted _ -> true | _ -> false

let new_src ~mig ~domain ~peer ~name ~phase ~images =
  { sm_mig = mig; sm_domain = domain; sm_peer = peer; sm_name = name; sm_phase = phase;
    sm_images = images; sm_due = false; sm_stamp = 0; sm_offered = false;
    sm_need_seen = false; sm_pages = []; sm_todo = []; sm_inflight = [];
    sm_manifest = None }

let new_tgt ~mig ~origin ~phase ~offered ~cleanup ~root =
  { tm_mig = mig; tm_origin = origin; tm_phase = phase; tm_offered = offered;
    tm_manifest = None; tm_cleanup = cleanup; tm_root = root; tm_stamp = 0;
    tm_adopt_due = false; tm_receipt_due = false; tm_redelegate = [] }

let monitor t = Fleet.monitor t.fleet
let named m name = List.find_opt (fun d -> Tyche.Domain.name d = name) (Tyche.Monitor.domains m)

(* --- durable records --------------------------------------------------- *)

(* Three record kinds, appended to the fleet's journal:
   - the whole state of one migration in one role. The newest record
     for a migration replaces every earlier one, so replay needs no
     fold, and compaction writes each live migration's record out again
     as it stands. Every state record carries the id counter, so the
     newest one restores it;
   - a target's manifest, written once when [Final] arrives;
   - a chunk, keyed by its hash.
   Source states trace Streaming → Committing → Done, target states
   Receiving → Parked → Live; either may end Aborted. *)

let record f =
  let buf = Buffer.create 64 in
  f buf;
  Buffer.contents buf

let src_record t s =
  record (fun b ->
      Persist.Wire.u8 b 1;
      Persist.Wire.str b s.sm_mig;
      Persist.Wire.int b t.counter;
      Persist.Wire.int b s.sm_domain;
      Persist.Wire.str b s.sm_peer;
      Persist.Wire.str b s.sm_name;
      Persist.Wire.list b Persist.Wire.str s.sm_images;
      match s.sm_phase with
      | S_streaming | S_await_receipt -> Persist.Wire.u8 b 0
      | S_committing -> Persist.Wire.u8 b 1
      | S_done -> Persist.Wire.u8 b 2
      | S_aborted reason ->
        Persist.Wire.u8 b 3;
        Persist.Wire.str b reason)

let tgt_record t tg =
  record (fun b ->
      Persist.Wire.u8 b 2;
      Persist.Wire.str b tg.tm_mig;
      Persist.Wire.int b t.counter;
      Persist.Wire.str b tg.tm_origin;
      Persist.Wire.list b Persist.Wire.str tg.tm_offered;
      Persist.Wire.bool_ b tg.tm_cleanup;
      Persist.Wire.str b (Option.value tg.tm_root ~default:"");
      match tg.tm_phase with
      | T_receiving -> Persist.Wire.u8 b 0
      | T_adopted d ->
        Persist.Wire.u8 b 1;
        Persist.Wire.int b d
      | T_live d ->
        Persist.Wire.u8 b 2;
        Persist.Wire.int b d
      | T_aborted { reason; copy } ->
        Persist.Wire.u8 b 3;
        Persist.Wire.str b reason;
        Persist.Wire.int b (Option.value copy ~default:(-1)))

let manifest_record tg mf =
  record (fun b ->
      Persist.Wire.u8 b 3;
      Persist.Wire.str b tg.tm_mig;
      Wire.put_manifest b mf)

let chunk_record hash bytes =
  record (fun b ->
      Persist.Wire.u8 b 4;
      Persist.Wire.str b hash;
      Persist.Wire.str b bytes)

let next_stamp t =
  t.stamp <- t.stamp + 1;
  t.stamp

let save_src t s =
  s.sm_stamp <- next_stamp t;
  Fleet.append t.fleet (src_record t s)

let save_tgt t tg =
  tg.tm_stamp <- next_stamp t;
  Fleet.append t.fleet (tgt_record t tg)

(* Apply one replayed record; a record that does not decode is skipped. *)
let replay t payload =
  let r = Persist.Wire.reader payload in
  let corrupt () = raise (Persist.Wire.Corrupt "unknown migrate record") in
  match
    let apply =
      match Persist.Wire.get_u8 r with
      | 1 ->
        let mig = Persist.Wire.get_str r in
        let counter = Persist.Wire.get_int r in
        let domain = Persist.Wire.get_int r in
        let peer = Persist.Wire.get_str r in
        let name = Persist.Wire.get_str r in
        let images = Persist.Wire.get_list r Persist.Wire.get_str in
        let phase =
          match Persist.Wire.get_u8 r with
          | 0 -> S_streaming
          | 1 -> S_committing
          | 2 -> S_done
          | 3 -> S_aborted (Persist.Wire.get_str r)
          | _ -> corrupt ()
        in
        fun () ->
          t.counter <- max t.counter counter;
          let s = new_src ~mig ~domain ~peer ~name ~phase ~images in
          s.sm_stamp <- next_stamp t;
          Hashtbl.replace t.srcs mig s
      | 2 ->
        let mig = Persist.Wire.get_str r in
        let counter = Persist.Wire.get_int r in
        let origin = Persist.Wire.get_str r in
        let offered = Persist.Wire.get_list r Persist.Wire.get_str in
        let cleanup = Persist.Wire.get_bool r in
        let root = match Persist.Wire.get_str r with "" -> None | root -> Some root in
        let phase =
          match Persist.Wire.get_u8 r with
          | 0 -> T_receiving
          | 1 -> T_adopted (Persist.Wire.get_int r)
          | 2 -> T_live (Persist.Wire.get_int r)
          | 3 ->
            let reason = Persist.Wire.get_str r in
            let copy = match Persist.Wire.get_int r with -1 -> None | d -> Some d in
            T_aborted { reason; copy }
          | _ -> corrupt ()
        in
        fun () ->
          t.counter <- max t.counter counter;
          let tg = new_tgt ~mig ~origin ~phase ~offered ~cleanup ~root in
          tg.tm_stamp <- next_stamp t;
          tg.tm_manifest <- Option.bind (Hashtbl.find_opt t.tgts mig) (fun p -> p.tm_manifest);
          Hashtbl.replace t.tgts mig tg
      | 3 ->
        let mig = Persist.Wire.get_str r in
        let mf = Wire.get_manifest r in
        fun () -> Option.iter (fun tg -> tg.tm_manifest <- Some mf) (Hashtbl.find_opt t.tgts mig)
      | 4 ->
        let hash = Persist.Wire.get_str r in
        let bytes = Persist.Wire.get_str r in
        fun () -> Hashtbl.replace t.chunks hash bytes
      | _ -> corrupt ()
    in
    Persist.Wire.expect_end r;
    apply
  with
  | apply -> apply ()
  | exception Persist.Wire.Corrupt _ -> ()

(* What compaction writes: every migration still in memory (see
   [settle]), oldest first, each target followed by its manifest, then
   the chunks. Each record is encoded when called, so the fleet counts
   them on every tick and encodes them only for a snapshot. *)
let live t =
  let migs =
    Hashtbl.fold (fun _ s acc -> (s.sm_stamp, [ (fun () -> src_record t s) ]) :: acc) t.srcs []
  in
  let migs =
    Hashtbl.fold
      (fun _ tg acc ->
        let mf = Option.to_list (Option.map (fun mf () -> manifest_record tg mf) tg.tm_manifest) in
        (tg.tm_stamp, (fun () -> tgt_record t tg) :: mf) :: acc)
      t.tgts migs
  in
  List.concat_map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) migs)
  @ Hashtbl.fold (fun hash bytes acc -> (fun () -> chunk_record hash bytes) :: acc) t.chunks []

(* Terminal migrations that owe their peer nothing more that are kept
   so [status] and [verify_receipt] still answer for them, across a
   crash too. *)
let recent_outcomes = 4

(* Drop what no longer needs keeping, in memory and so in the next
   compaction: the terminal migrations that owe nothing, beyond the
   [recent_outcomes] newest, and the chunks no Receiving or Parked
   target names. Runs after every operation. *)
let settle t =
  let active = ref 0 and outcomes = ref [] in
  Hashtbl.iter
    (fun mig s ->
      if not (terminal_src s) then incr active
      else if not s.sm_due then
        outcomes := (s.sm_stamp, fun () -> Hashtbl.remove t.srcs mig) :: !outcomes)
    t.srcs;
  Hashtbl.iter
    (fun mig tg ->
      if not (terminal_tgt tg) then incr active
      else if tg.tm_redelegate = [] then
        outcomes := (tg.tm_stamp, fun () -> Hashtbl.remove t.tgts mig) :: !outcomes)
    t.tgts;
  Obs.Metrics.set_gauge active_g !active;
  List.sort (fun (a, _) (b, _) -> Int.compare b a) !outcomes
  |> List.iteri (fun i (_, forget) -> if i >= recent_outcomes then forget ());
  let named = Hashtbl.create 16 in
  let name h = Hashtbl.replace named h () in
  Hashtbl.iter
    (fun _ tg ->
      match tg.tm_phase with
      | T_receiving | T_adopted _ ->
        List.iter name tg.tm_offered;
        Option.iter (fun mf -> List.iter (fun (_, _, h) -> name h) mf.Wire.mf_pages) tg.tm_manifest
      | T_live _ | T_aborted _ -> ())
    t.tgts;
  Hashtbl.filter_map_inplace (fun h b -> if Hashtbl.mem named h then Some b else None) t.chunks

let sha_raw s = Crypto.Sha256.(to_raw (string s))

(* --- sending ----------------------------------------------------------- *)

let chan = "migrate"

(* Best-effort send with a deferred queue: a frame that cannot leave yet
   (peer not re-keyed after recovery) is retried from [tick]. Offers are
   never deferred — the source re-offers from tick until one sends. A
   sent frame's barrier also makes every record journaled before it
   durable. *)
let try_send t ~peer frame =
  Result.is_ok (Fleet.send_data t.fleet ~peer ~chan (Wire.encode_frame frame))

let post t ~peer frame =
  try_send t ~peer frame
  ||
  (Queue.add (peer, frame) t.deferred;
   false)

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

(* A sealed domain with its measurement. *)
let sealed m domain =
  match Tyche.Monitor.find_domain m domain with
  | Some dom -> Option.map (fun meas -> (dom, meas)) (Tyche.Domain.measurement dom)
  | None -> None

(* The portable description of a sealed domain, from this monitor's own
   tree and memory: memory caps, measured ranges, state digest, and the
   pages with their hashes and bytes. *)
let describe m dom meas =
  let caps = mem_caps m (Tyche.Domain.id dom) in
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
  (caps, measured, state, read_pages m (page_pieces (List.map (fun (b, l, _, _) -> (b, l)) caps)))

let page_hashes pages = List.map (fun (b, l, h, _) -> (b, l, h)) pages

(* Recompute the portable digests — what the target checks after
   adoption, and what [verify_receipt] re-checks after any crash. *)
let local_digests m domain =
  Option.map
    (fun (dom, meas) ->
      let _, _, state, pages = describe m dom meas in
      (state, image_digest ~state ~pages:(page_hashes pages)))
    (sealed m domain)

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
  match sealed m src.sm_domain with
  | None -> Error (Refused "domain is gone or unsealed")
  | Some (dom, meas) ->
      let caps, measured, state, pages4 = describe m dom meas in
      let pages = page_hashes pages4 in
      (* Dedup the byte map by hash (zero pages collapse here too). *)
      let bytes_by_hash =
        List.fold_left
          (fun acc (_, _, h, bytes) -> if List.mem_assoc h acc then acc else (h, bytes) :: acc)
          [] pages4
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
          let image = image_digest ~state ~pages in
          let mf =
            { Wire.mf_name = Tyche.Domain.name dom;
              mf_kind = Tyche.Domain.kind_to_code (Tyche.Domain.kind dom);
              mf_entry = Option.value (Tyche.Domain.entry_point dom) ~default:(-1);
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
          Ok mf))

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
  let* () = Result.map_error (fun e -> Monitor_error e) (Tyche.Monitor.freeze_domain m ~domain) in
  let mig = Printf.sprintf "%s:%d" (Fleet.endpoint_name t.fleet) t.counter in
  t.counter <- t.counter + 1;
  let src =
    new_src ~mig ~domain ~peer ~name:(Tyche.Domain.name dom) ~phase:S_streaming ~images:[]
  in
  match build_manifest t src with
  | Error e ->
    ignore (Tyche.Monitor.thaw_domain m ~domain);
    Error e
  | Ok mf ->
    src.sm_images <- [ mf.Wire.mf_image ];
    Hashtbl.replace t.srcs mig src;
    save_src t src;
    Obs.Metrics.incr started_c;
    (* The Offer's barrier makes the migration durable; an Offer that
       waits for a session leaves that to an explicit one. *)
    send_offer t src;
    if not src.sm_offered then Fleet.barrier t.fleet;
    settle t;
    Ok mig

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
      ignore (post t ~peer:src.sm_peer (Wire.Final { mig = src.sm_mig; manifest = mf }));
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

(* A terminal source owes its target one notice, Commit or Abort, until
   a send of it succeeds; [tick] retries. *)
let send_notice t src =
  let frame =
    match src.sm_phase with
    | S_aborted reason -> Wire.Abort { mig = src.sm_mig; reason }
    | _ -> Wire.Commit { mig = src.sm_mig }
  in
  src.sm_due <- not (try_send t ~peer:src.sm_peer frame)

let source_abort t src ~reason ~notify =
  if not (terminal_src src) then begin
    Fleet.crash_at t.fleet abort_point;
    src.sm_phase <- S_aborted reason;
    save_src t src;
    (* Durable before the thaw lets the domain run again. *)
    Fleet.barrier t.fleet;
    ignore (Tyche.Monitor.thaw_domain (monitor t) ~domain:src.sm_domain);
    Obs.Metrics.incr aborted_c;
    if notify then send_notice t src
  end

(* --- source: commit ---------------------------------------------------- *)

let finish_commit t src =
  let m = monitor t in
  Fleet.crash_at t.fleet commit_point;
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
    if named m proxy_name = None then
      ignore
        (Tyche.Monitor.create_domain m ~caller:Tyche.Domain.initial ~name:proxy_name
           ~kind:Tyche.Domain.Remote);
    src.sm_phase <- S_done;
    save_src t src;
    Obs.Metrics.incr committed_c;
    (* The Commit's barrier makes the outcome durable; a Commit that
       waits for a session leaves that to an explicit one. *)
    send_notice t src;
    if src.sm_due then Fleet.barrier t.fleet
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
    if not (List.mem image src.sm_images) then
      source_abort t src ~reason:"receipt digest mismatch" ~notify:true
    else begin
      Fleet.crash_at t.fleet commit_point;
      src.sm_phase <- S_committing;
      save_src t src;
      (* Durable before the commit destroys the local copy. *)
      Fleet.barrier t.fleet;
      advance_commit t src
    end
  | S_done ->
    (* A duplicate receipt after commit means the target never saw the
       Commit (e.g. it died in flight across a target restart): answer
       it again. The target absorbs duplicate Commits. *)
    src.sm_due <- true
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

let cleanup_named m name =
  Option.iter (fun d -> adopt_cleanup m (Tyche.Domain.id d)) (named m name)

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
  else if named m mf.mf_name <> None then Error ("domain name already in use: " ^ mf.mf_name)
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
        (* The adopting intent is durable before the first monitor
           mutation, so recovery knows a partial copy may exist. *)
        tg.tm_cleanup <- true;
        save_tgt t tg;
        Fleet.barrier t.fleet;
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
        tg.tm_cleanup <- false;
        (match result with
        | Error reason ->
          (* Undo the partial reassembly before reporting. *)
          cleanup_named m mf.mf_name;
          Error reason
        | Ok domain ->
          (match Hashtbl.find_opt t.peer_roots tg.tm_origin with
          | Some r -> tg.tm_root <- Some (Crypto.Sha256.to_raw r)
          | None -> ());
          tg.tm_phase <- T_adopted domain;
          tg.tm_adopt_due <- false;
          tg.tm_receipt_due <- true;
          save_tgt t tg;
          Ok domain)))

let target_abort t tg ~reason ~notify =
  if not (terminal_tgt tg) then begin
    Fleet.crash_at t.fleet abort_point;
    let copy = match tg.tm_phase with T_adopted d -> Some d | _ -> None in
    tg.tm_phase <- T_aborted { reason; copy };
    save_tgt t tg;
    (* The abort is durable before the clean-up destroys the copy; a
       crash in between leaves recovery to finish it. *)
    Option.iter
      (fun d ->
        Fleet.barrier t.fleet;
        adopt_cleanup (monitor t) d)
      copy;
    Obs.Metrics.incr aborted_c;
    if notify && not (post t ~peer:tg.tm_origin (Wire.Abort { mig = tg.tm_mig; reason })) then
      Fleet.barrier t.fleet
  end

let send_receipt t tg =
  match tg.tm_manifest with
  | Some mf ->
    if try_send t ~peer:tg.tm_origin (Wire.Receipt { mig = tg.tm_mig; image = mf.Wire.mf_image })
    then tg.tm_receipt_due <- false
  | None -> ()

let run_adopt t tg =
  match tg.tm_manifest with
  | None -> ()
  | Some mf ->
    if tg.tm_cleanup then begin
      cleanup_named (monitor t) mf.Wire.mf_name;
      tg.tm_cleanup <- false
    end;
    (match adopt t tg mf with
    | Ok _ ->
      (* The Receipt's barrier makes the parked state durable; a
         Receipt that waits for a session leaves that to an explicit
         one. *)
      send_receipt t tg;
      if tg.tm_receipt_due then Fleet.barrier t.fleet
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


(* The manifest's delegations to re-home from here. One whose peer is
   this endpoint collapses to locality: the remote holder just became
   the local host. *)
let redelegations t tg =
  match tg.tm_manifest with
  | Some mf ->
    List.filter (fun (peer, _, _, _) -> peer <> Fleet.endpoint_name t.fleet) mf.Wire.mf_dels
  | None -> []

(* The Live record rides the barrier of the Commit's applied floor, or
   of the first re-delegation: the thaw it precedes is volatile. *)
let on_commit t tg =
  match tg.tm_phase with
  | T_adopted domain ->
    tg.tm_phase <- T_live domain;
    save_tgt t tg;
    ignore (Tyche.Monitor.thaw_domain (monitor t) ~domain);
    tg.tm_redelegate <- redelegations t tg;
    try_redelegate t tg domain
  | T_live _ | T_receiving | T_aborted _ -> ()

(* --- inbound frame dispatch -------------------------------------------- *)

(* A frame's records take no barrier of their own: they ride the
   barrier of a frame the handler posts, or of the applied floor the
   fleet journals before it acks. *)

let store_chunk t hash bytes =
  if Hashtbl.mem t.chunks hash then Obs.Metrics.incr dedup_c
  else begin
    Fleet.crash_at t.fleet chunk_point;
    Fleet.append t.fleet (chunk_record hash bytes);
    Hashtbl.replace t.chunks hash bytes;
    Obs.Metrics.incr chunks_rx_c
  end

let on_frame t origin = function
  | Wire.Offer { mig; hashes } -> (
    (* Only an Offer opens a migration on the target: the source sends
       nothing else before the Need that answers it. *)
    let tg =
      match Hashtbl.find_opt t.tgts mig with
      | Some tg -> tg
      | None ->
        let tg =
          new_tgt ~mig ~origin ~phase:T_receiving ~offered:hashes ~cleanup:false ~root:None
        in
        Hashtbl.replace t.tgts mig tg;
        save_tgt t tg;
        tg
    in
    let held = List.filter (Hashtbl.mem t.chunks) hashes in
    match tg.tm_phase with
    | T_adopted _ ->
      (* Already parked a verified copy; a re-offer (resumed source)
         only needs the receipt re-bound, never a re-stream. *)
      List.iter (fun _ -> Obs.Metrics.incr dedup_c) held;
      tg.tm_receipt_due <- true
    | T_receiving ->
      if tg.tm_offered <> hashes then begin
        tg.tm_offered <- hashes;
        save_tgt t tg
      end;
      List.iter (fun _ -> Obs.Metrics.incr dedup_c) held;
      let missing = List.filter (fun h -> not (Hashtbl.mem t.chunks h)) hashes in
      ignore (post t ~peer:origin (Wire.Need { mig; hashes = missing }))
    | T_live _ | T_aborted _ -> ())
  | Wire.Need { mig; hashes } -> (
    match Hashtbl.find_opt t.srcs mig with
    | None -> Obs.Metrics.incr reject_c
    | Some src ->
      if src.sm_phase = S_streaming then begin
        src.sm_need_seen <- true;
        src.sm_todo <- List.filter (fun h -> not (List.mem h src.sm_inflight)) hashes;
        pump t src
      end)
  | Wire.Chunk { mig; hash; bytes } -> (
    match Hashtbl.find_opt t.tgts mig with
    | None -> Obs.Metrics.incr reject_c
    | Some tg when terminal_tgt tg -> ()
    | Some tg ->
      if sha_raw bytes <> hash then
        target_abort t tg ~reason:"chunk content does not match its hash" ~notify:true
      else begin
        store_chunk t hash bytes;
        ignore (post t ~peer:origin (Wire.Chunk_ack { mig; hash }))
      end)
  | Wire.Chunk_ack { mig; hash } -> (
    match Hashtbl.find_opt t.srcs mig with
    | None -> ()
    | Some src ->
      src.sm_inflight <- List.filter (fun h -> h <> hash) src.sm_inflight;
      if src.sm_phase = S_streaming then pump t src)
  | Wire.Final { mig; manifest } -> (
    match Hashtbl.find_opt t.tgts mig with
    | None -> Obs.Metrics.incr reject_c
    | Some tg -> (
      match tg.tm_phase with
      | T_receiving ->
        (* A re-offered migration may replace a stale manifest (the
           resumed source has a fresh signer); digests are unchanged. *)
        Fleet.append t.fleet (manifest_record tg manifest);
        tg.tm_manifest <- Some manifest;
        run_adopt t tg
      | T_adopted _ ->
        (* Duplicate Final after a crash window: receipt again. *)
        tg.tm_receipt_due <- true
      | T_live _ | T_aborted _ -> ()))
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
    | None, None -> ())

let handle t origin payload =
  (match Wire.decode_frame payload with
  | Error _ -> Obs.Metrics.incr reject_c
  | Ok frame -> on_frame t origin frame);
  settle t

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
      | S_done | S_aborted _ -> if src.sm_due then send_notice t src
      | S_await_receipt -> ())
    t.srcs;
  Hashtbl.iter
    (fun _ tg ->
      match tg.tm_phase with
      | T_receiving -> if tg.tm_adopt_due then run_adopt t tg
      | T_adopted _ -> if tg.tm_receipt_due then send_receipt t tg
      | T_live domain -> if tg.tm_redelegate <> [] then try_redelegate t tg domain
      | T_aborted _ -> ())
    t.tgts;
  settle t

(* --- recovery ---------------------------------------------------------- *)

(* [attach] replays the newest state of each migration, then
   re-establishes the volatile side: freeze latches, page maps,
   manifests, due-flags for the messages whose sends may have been lost
   with the crash. *)
let resume_source t src =
  let m = monitor t in
  match src.sm_phase with
  | S_done | S_aborted _ ->
    (* The notice may have died with the crash; the target absorbs
       duplicates and ignores a migration it never heard of. *)
    src.sm_due <- true
  | S_streaming | S_await_receipt | S_committing ->
    Obs.Metrics.incr resumed_c;
    if Tyche.Monitor.find_domain m src.sm_domain = None then begin
      (* Crashed between destroy and the Done record: finish the swap. *)
      if src.sm_phase = S_committing then advance_commit t src
      else source_abort t src ~reason:"domain lost across restart" ~notify:true
    end
    else begin
      ignore (Tyche.Monitor.freeze_domain m ~domain:src.sm_domain);
      match build_manifest t src with
      | Error _ -> source_abort t src ~reason:"manifest rebuild failed" ~notify:true
      | Ok mf ->
        if src.sm_phase = S_committing then advance_commit t src
        else if not (List.mem mf.Wire.mf_image src.sm_images) then begin
          (* Re-offer from tick; the target's durable chunks dedup the
             re-send. Journal the rebuilt image too, so a second crash
             still honours a receipt the target binds to this offer:
             the re-offer's barrier makes it durable. *)
          src.sm_images <- mf.Wire.mf_image :: src.sm_images;
          save_src t src
        end
    end

let resume_target t tg =
  let m = monitor t in
  match tg.tm_phase with
  | T_aborted { copy; _ } ->
    (* [target_abort] makes the abort durable before [adopt_cleanup]
       destroys the copy through logged calls: a crash in between
       leaves the copy behind, so finish the clean-up (safe to run
       again: it does nothing once the domain is gone). *)
    Option.iter (adopt_cleanup m) copy
  | T_live _ ->
    (* Re-delegations may have been cut short; rebuild the remainder
       from the manifest, minus what the fleet journal already has
       (the [existing_delegation] filter in {!try_redelegate}). *)
    tg.tm_redelegate <- redelegations t tg
  | T_adopted domain when Tyche.Monitor.find_domain m domain <> None ->
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
    tg.tm_receipt_due <- true
  | T_adopted _ | T_receiving ->
    Obs.Metrics.incr resumed_c;
    (* Still receiving, or an adoption that did not survive: clean up
       by name and re-run from the manifest when present; otherwise
       wait for the source to re-offer. *)
    tg.tm_cleanup <- tg.tm_cleanup || tg.tm_phase <> T_receiving;
    tg.tm_phase <- T_receiving;
    tg.tm_adopt_due <- tg.tm_manifest <> None

let attach ~fleet =
  let t =
    { fleet; chunks = Hashtbl.create 64; srcs = Hashtbl.create 4; tgts = Hashtbl.create 4;
      counter = 0; stamp = 0; peer_roots = Hashtbl.create 4; deferred = Queue.create () }
  in
  Fleet.set_data_handler fleet ~chan (fun origin payload -> handle t origin payload);
  List.iter (replay t)
    (Fleet.attach_client fleet
       ~live:(fun () -> List.map (fun record -> record ()) (live t))
       ~count:(fun () -> List.length (live t)));
  let oldest_first stamp tbl =
    Hashtbl.fold (fun _ x acc -> x :: acc) tbl []
    |> List.sort (fun a b -> Int.compare (stamp a) (stamp b))
  in
  List.iter (resume_source t) (oldest_first (fun s -> s.sm_stamp) t.srcs);
  List.iter (resume_target t) (oldest_first (fun tg -> tg.tm_stamp) t.tgts);
  settle t;
  t

(* --- public surface ---------------------------------------------------- *)

let set_peer_root t ~peer root = Hashtbl.replace t.peer_roots peer root

let abort t ~mig ~reason =
  match (Hashtbl.find_opt t.srcs mig, Hashtbl.find_opt t.tgts mig) with
  | Some src, _ ->
    source_abort t src ~reason ~notify:true;
    settle t;
    Ok ()
  | None, Some tg ->
    target_abort t tg ~reason ~notify:true;
    settle t;
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

let domain t ~mig =
  match (Hashtbl.find_opt t.srcs mig, Hashtbl.find_opt t.tgts mig) with
  | Some { sm_phase = S_done; _ }, _ -> None
  | Some src, _ -> Some src.sm_domain
  | None, Some { tm_phase = T_adopted d | T_live d | T_aborted { copy = Some d; _ }; _ } ->
    Some d
  | None, _ -> None

let proxy_domain t ~mig =
  match Hashtbl.find_opt t.srcs mig with
  | Some ({ sm_phase = S_done; _ } as src) ->
    Option.map Tyche.Domain.id (named (monitor t) ("remote:" ^ src.sm_peer ^ ":" ^ src.sm_name))
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
