(* Durability layer tests: CRC framing, WAL truncation semantics
   (qcheck over random cut points and bit flips), directed crash-restart
   recovery on both backends, and the fault plan/suspend re-entrancy
   contract the store's injection points rely on. *)

open Testkit

let os = Tyche.Domain.initial

(* --- fixtures -------------------------------------------------------- *)

(* A fresh machine/backend/tpm for recovery to rebuild onto (the crashed
   monitor's in-memory state is gone; only the store survives). The
   measured boot is deterministic, so the monitor range matches the
   original machine's. *)
let fresh_target arch =
  match arch with
  | `X86 ->
    let machine = Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores:4 ~mem_size:(16 * 1024 * 1024) () in
    let rng = Crypto.Rng.create ~seed:0x99L in
    let tpm = Rot.Tpm.create rng in
    let br = Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image in
    (machine, Backend_x86.create machine (), tpm, rng, br.Rot.Boot.monitor_range)
  | `Riscv ->
    let machine = Hw.Machine.create ~arch:Hw.Cpu.Riscv64 ~cores:2 ~mem_size:(16 * 1024 * 1024) () in
    let rng = Crypto.Rng.create ~seed:0x98L in
    let tpm = Rot.Tpm.create rng in
    let br = Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image in
    let backend = Backend_riscv.create machine ~monitor_range:br.Rot.Boot.monitor_range () in
    (machine, backend, tpm, rng, br.Rot.Boot.monitor_range)

let boot_arch = function `X86 -> boot_x86 () | `Riscv -> boot_riscv ()

let recover_from arch store =
  let machine, backend, tpm, rng, monitor_range = fresh_target arch in
  Tyche.Monitor.recover machine ~store ~backend ~tpm ~rng ~monitor_range

(* Ten committed operations covering every record family the WAL can
   carry except destroy/timer (exercised separately and by chaos). *)
let workload w =
  let m = w.monitor in
  let sbx =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"sbx" ~kind:Tyche.Domain.Sandbox)
  in
  let mem = os_memory_cap w in
  let tree = Tyche.Monitor.tree m in
  let base =
    match Cap.Captree.resource tree mem with
    | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.base r
    | _ -> Alcotest.fail "os memory cap is not memory"
  in
  let sub = Hw.Addr.Range.make ~base ~len:4096 in
  let carved = get_ok (Tyche.Monitor.carve m ~caller:os ~cap:mem ~subrange:sub) in
  let _ =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:carved ~to_:sbx ~rights:Cap.Rights.rw
         ~cleanup:Cap.Revocation.Zero ())
  in
  let core0 = os_core_cap w 0 in
  let _ =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:core0 ~to_:sbx ~rights:Cap.Rights.full
         ~cleanup:Cap.Revocation.Keep ())
  in
  get_ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:sbx base);
  get_ok (Tyche.Monitor.set_flush_policy m ~caller:os ~domain:sbx true);
  get_ok (Tyche.Monitor.mark_measured m ~caller:os ~domain:sbx sub);
  get_ok (Tyche.Monitor.seal m ~caller:os ~domain:sbx);
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:sbx) in
  let _ = get_ok (Tyche.Monitor.ret m ~core:0) in
  sbx

let workload_ops = 10

(* Structural fingerprint of everything the durability layer promises to
   preserve: the tree (nodes, lineage, counters), domain configuration,
   and per-core scheduling. *)
let fingerprint m =
  let tree = Tyche.Monitor.tree m in
  let doms =
    List.map
      (fun d ->
        ( Tyche.Domain.id d,
          Tyche.Domain.name d,
          Tyche.Domain.kind d,
          Tyche.Domain.created_by d,
          Tyche.Domain.is_sealed d,
          Tyche.Domain.entry_point d,
          Tyche.Domain.measured_ranges d,
          Tyche.Domain.flush_on_transition d,
          Option.map Crypto.Sha256.to_raw (Tyche.Domain.measurement d) ))
      (Tyche.Monitor.domains m)
  in
  let ncores = Array.length (Tyche.Monitor.machine m).Hw.Machine.cores in
  let sched =
    List.init ncores (fun core ->
        (Tyche.Monitor.current_domain m ~core, Tyche.Monitor.call_depth m ~core))
  in
  (Cap.Captree.dump tree, Cap.Captree.next_id tree, doms, sched)

let check_fingerprint_eq a b =
  Alcotest.(check bool) "recovered state structurally identical" true (a = b)

let attest_all m =
  List.map
    (fun d ->
      let id = Tyche.Domain.id d in
      (id, get_ok (Tyche.Monitor.attest m ~caller:os ~domain:id ~nonce:"fsck-nonce")))
    (Tyche.Monitor.domains m)

let check_fsck ?baseline m =
  let r = Tyche.Fsck.check ?baseline m in
  if not (Tyche.Fsck.ok r) then
    Alcotest.failf "fsck: %s" (Format.asprintf "%a" Tyche.Fsck.pp r)

(* --- CRC and framing -------------------------------------------------- *)

let test_crc_vectors () =
  Alcotest.(check int) "crc32(123456789)" 0xCBF43926 (Persist.Crc32.digest "123456789");
  Alcotest.(check int) "crc32(empty)" 0 (Persist.Crc32.digest "");
  Alcotest.(check int) "digest_sub agrees" (Persist.Crc32.digest "456")
    (Persist.Crc32.digest_sub "123456789" ~pos:3 ~len:3)

let test_frame_roundtrip () =
  let records = [ (1, "alpha"); (2, ""); (3, String.make 300 'x') ] in
  let blob = String.concat "" (List.map (fun (seq, p) -> Persist.Wal.frame ~seq p) records) in
  let r = Persist.Wal.parse blob in
  Alcotest.(check bool) "not truncated" false r.Persist.Wal.truncated;
  Alcotest.(check int) "valid bytes" (String.length blob) r.Persist.Wal.valid_bytes;
  Alcotest.(check (list (pair int string))) "records" records r.Persist.Wal.records

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

(* The WAL's on-disk format, pinned byte for byte: one record of every
   logged shape. Opcode and rights/clean-up bytes are fixed width, every
   other integer a zigzag varint (3 is 06, 4096 is 80 40) and a string a
   varint length then its bytes. The hex was transcoded field by field
   from the fixed-width goldens the log wrote before integers became
   varints. A changed byte breaks recovery of existing stores and moves
   every store-bytes figure. *)
let test_op_roundtrip () =
  let open Cap.Revocation in
  let rights =
    { Cap.Rights.perm = { Hw.Perm.read = true; write = false; exec = true };
      can_share = false;
      can_grant = true }
  in
  let range base len = Hw.Addr.Range.make ~base ~len in
  let issued = Tyche.Op.issued in
  let golden : (Tyche.Op.record * string) list =
    [ ( issued 0 (Create_domain { name = "enclave-1"; kind = Tyche.Domain.Enclave }),
        "010009656e636c6176652d3102" );
      (issued 0 (Set_entry_point { domain = 3; entry = 0x40_0000 }), "02000680808004");
      (issued 1 (Set_flush_policy { domain = 3; flush = true }), "03020601");
      (issued 0 (Mark_measured { domain = 3; range = range 4096 8192 }), "0400068040808001");
      ( Tyche.Op.Issued { by = 0; call = Seal { domain = 3 }; digest = String.make 32 '\x7f' },
        "05000620" ^ String.concat "" (List.init 32 (fun _ -> "7f")) );
      (issued 0 (Destroy { domain = 3 }), "060006");
      ( issued 0
          (Share { cap = 7; to_ = 3; rights; cleanup = Zero; subrange = Some (range 0 4096) }),
        "07000e06150101008040" );
      ( issued 0 (Share { cap = 7; to_ = 3; rights; cleanup = Keep; subrange = None }),
        "07000e06150000" );
      ( issued 2 (Grant { cap = 9; to_ = 4; rights; cleanup = Zero_and_flush }),
        "080412081503" );
      (issued 0 (Split { cap = 5; at = 12288 }), "09000a80c001");
      (issued 0 (Carve { cap = 5; subrange = range 4096 4096 }), "0a000a80408040");
      (issued 0 (Revoke { cap = 11 }), "0b0016");
      (issued 1 (Call { target = 3 }), "0c0206");
      (issued 1 Return, "0d02");
      (Tyche.Op.Evicted { core = 0 }, "0e00") ]
  in
  List.iter
    (fun (record, bytes) ->
      let wire = Tyche.Op.encode record in
      Alcotest.(check string) "golden bytes" bytes (hex wire);
      Alcotest.(check bool) (bytes ^ " decodes back") true (Tyche.Op.decode wire = Ok record))
    golden

let golden_segment =
  String.concat ""
    [ "2bf2eda6e58d668769ef67e6c0e495f8cf37225718e7e57c0503cd83dac95e960b020000";
      "80c0ff0f1f00000100020401001f0000010000060280041f000001000008000080401f00";
      "000203000a0080408080ff0f1f00000203020c000080400b02010801000e01001f020004";
      "0100100080408080011f00000a0301120080c0018080fe0f1f00000a0300140080408080";
      "0107040210020016028004010403060100" ]

let golden_manifest =
  String.concat ""
    [ "041e06181c0300026f7300010001000000020373627801000100010080400120c1fc22d2";
      "205675e9179a867d9c412fe2b0e32361663b53fd1a839f53752381b90403656e63020000";
      "01000000010201010080010100202bf2eda6e58d668769ef67e6c0e495f8cf37225718e7";
      "e57c0503cd83dac95e96" ]

(* The checkpoint's on-disk format, pinned byte for byte: a small tree
   covering every resource kind, origin, activation state and clean-up
   policy, plus sealed, measured and running domains, checkpointed into
   a fresh store. The manifest opens with version byte 4. Like the op
   goldens, the hex was transcoded field by field from the version-2
   (fixed-width) goldens, with the segment's hash recomputed over its
   new body. A changed byte breaks recovery of existing stores and
   moves every store-bytes figure. *)
let test_checkpoint_golden () =
  let nic = Hw.Device.create ~kind:Hw.Device.Nic ~bus:1 ~dev:0 ~fn:0 () in
  let w = boot_x86 ~cores:1 ~devices:[ nic ] () in
  let m = w.monitor in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence m ~store ();
  let sbx = workload w in
  let enc =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"enc" ~kind:Tyche.Domain.Enclave)
  in
  let mem = os_memory_cap w in
  let base =
    match Cap.Captree.resource (Tyche.Monitor.tree m) mem with
    | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.base r
    | _ -> Alcotest.fail "os memory cap is not memory"
  in
  let piece =
    get_ok
      (Tyche.Monitor.carve m ~caller:os ~cap:mem
         ~subrange:(Hw.Addr.Range.make ~base ~len:8192))
  in
  ignore
    (get_ok
       (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:enc ~rights:Cap.Rights.exclusive_use
          ~cleanup:Cap.Revocation.Flush_cache));
  let dev =
    List.find
      (fun c ->
        match Cap.Captree.resource (Tyche.Monitor.tree m) c with
        | Some (Cap.Resource.Device _) -> true
        | _ -> false)
      (Tyche.Monitor.caps_of m os)
  in
  ignore
    (get_ok
       (Tyche.Monitor.share m ~caller:os ~cap:dev ~to_:enc ~rights:Cap.Rights.read_only
          ~cleanup:Cap.Revocation.Zero_and_flush ()));
  ignore (get_ok (Tyche.Monitor.call m ~core:0 ~target:sbx));
  Tyche.Monitor.checkpoint m;
  let newest blob =
    match List.rev (Persist.Wal.read store ~blob).Persist.Wal.records with
    | (_, payload) :: _ -> hex payload
    | [] -> Alcotest.failf "no record in %s" blob
  in
  Alcotest.(check string) "segment payload" golden_segment (newest Persist.Store.seg_blob);
  Alcotest.(check string) "manifest body" golden_manifest (newest Persist.Store.snap_blob)

(* A pool of valid framed records to cut and corrupt. *)
let sample_blob n =
  let buf = Buffer.create 256 in
  for seq = 1 to n do
    Buffer.add_string buf
      (Persist.Wal.frame ~seq (Printf.sprintf "payload-%d-%s" seq (String.make (seq mod 7) 'z')))
  done;
  Buffer.contents buf

let is_prefix_of shorter longer =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && go xs ys
  in
  go shorter longer

let qcheck_truncation =
  let full = sample_blob 20 in
  let all = (Persist.Wal.parse full).Persist.Wal.records in
  QCheck.Test.make ~name:"wal: every cut recovers a prefix, never raises" ~count:300
    QCheck.(int_bound (String.length full))
    (fun cut ->
      let r = Persist.Wal.parse (String.sub full 0 cut) in
      if not (is_prefix_of r.Persist.Wal.records all) then
        QCheck.Test.fail_reportf "cut %d: not a prefix" cut;
      if r.Persist.Wal.valid_bytes > cut then
        QCheck.Test.fail_reportf "cut %d: trusted bytes beyond the cut" cut;
      true)

let qcheck_bitflip =
  let full = sample_blob 20 in
  let all = (Persist.Wal.parse full).Persist.Wal.records in
  QCheck.Test.make ~name:"wal: any single bit flip yields a clean prefix" ~count:300
    QCheck.(pair (int_bound (String.length full - 1)) (int_bound 7))
    (fun (pos, bit) ->
      let b = Bytes.of_string full in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      let r = Persist.Wal.parse (Bytes.to_string b) in
      (* The flipped record (or one of its successors, if the flip
         landed in a length field) must not survive verbatim AND the
         result must still be a prefix of the original history. *)
      if not (is_prefix_of r.Persist.Wal.records all) then
        QCheck.Test.fail_reportf "flip at %d.%d: corrupt record admitted" pos bit;
      true)

(* --- varints ------------------------------------------------------------ *)

let encode f v =
  let b = Buffer.create 10 in
  f b v;
  Buffer.contents b

let corrupt f s =
  match f (Persist.Wire.reader s) with
  | _ -> false
  | exception Persist.Wire.Corrupt _ -> true

(* Both sides of every 7-bit boundary of the zigzag code, in both
   signs, and the ends of the int range. *)
let boundary_ints =
  [ 0; 1; -1; min_int; max_int; min_int + 1; max_int - 1 ]
  @ List.concat_map
      (fun k ->
        let p = 1 lsl ((7 * k) - 1) in
        [ p - 1; p; -p; -p - 1 ])
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

let test_int_boundaries () =
  List.iter
    (fun v ->
      let s = encode Persist.Wire.int v in
      let r = Persist.Wire.reader s in
      Alcotest.(check int) (Printf.sprintf "%d round-trips" v) v (Persist.Wire.get_int r);
      Persist.Wire.expect_end r)
    boundary_ints;
  List.iter
    (fun (v, n) ->
      Alcotest.(check int) (Printf.sprintf "%d takes %d bytes" v n) n
        (String.length (encode Persist.Wire.int v)))
    [ (0, 1); (-1, 1); (63, 1); (-64, 1); (64, 2); (-65, 2); (8191, 2); (8192, 3);
      (max_int, 9); (min_int, 9) ]

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"wire: int and uint round-trip any int" ~count:1000 QCheck.int
    (fun v ->
      let back f g =
        let r = Persist.Wire.reader (encode f v) in
        let w = g r in
        Persist.Wire.expect_end r;
        w = v
      in
      back Persist.Wire.int Persist.Wire.get_int && back Persist.Wire.uint Persist.Wire.get_uint)

let test_varint_rejects () =
  let rejects what s =
    Alcotest.(check bool) (what ^ ": uint") true (corrupt Persist.Wire.get_uint s);
    Alcotest.(check bool) (what ^ ": int") true (corrupt Persist.Wire.get_int s)
  in
  rejects "empty" "";
  rejects "lone continuation" "\x80";
  rejects "zero in two bytes" "\x80\x00";
  rejects "127 in two bytes" "\xff\x00";
  rejects "ten bytes" (String.make 9 '\xff' ^ "\x01");
  rejects "continuation on the ninth byte" (String.make 9 '\x80')

let prop_varint_strict =
  QCheck.Test.make ~name:"wire: overlong, over-wide and truncated varints raise Corrupt"
    ~count:500 QCheck.int (fun v ->
      let s = encode Persist.Wire.int v in
      let n = String.length s in
      (* A trailing zero group: the same value, spelled one byte longer. *)
      let overlong =
        String.sub s 0 (n - 1) ^ String.make 1 (Char.chr (Char.code s.[n - 1] lor 0x80)) ^ "\x00"
      in
      (* Padded past nine bytes, it no longer fits in 63 bits. *)
      let wide =
        String.sub s 0 (n - 1)
        ^ String.make 1 (Char.chr (Char.code s.[n - 1] lor 0x80))
        ^ String.make (9 - n) '\x80' ^ "\x01"
      in
      corrupt Persist.Wire.get_int overlong
      && corrupt Persist.Wire.get_int wide
      && List.for_all (fun cut -> corrupt Persist.Wire.get_int (String.sub s 0 cut))
           (List.init n Fun.id))

(* Every byte prefix of a stream that mixes one-record frames and batch
   frames of 2-70 records, of seqs, payload lengths and body lengths on
   either side of a varint boundary, parses to exactly the records of
   the frames it holds whole: [valid_bytes] is the whole frames' summed
   lengths, and a full replay applies every record they hold. *)
let prop_frame_prefixes =
  let payload =
    QCheck.Gen.(string_size (frequency [ (4, int_range 0 20); (1, int_range 120 140) ]))
  in
  let frame_gen =
    QCheck.Gen.(
      frequency [ (1, map (fun p -> [ p ]) payload); (1, list_size (int_range 2 70) payload) ])
  in
  let gen = QCheck.Gen.(pair (int_range 0 300) (list_size (int_range 1 5) frame_gen)) in
  QCheck.Test.make ~name:"wal: every prefix parses to its whole frames" ~count:60
    (QCheck.make gen) (fun (first, groups) ->
      (* Each group of payloads is one frame, numbered on from the last. *)
      let _, frames =
        List.fold_left
          (fun (seq, acc) payloads ->
            let records = List.mapi (fun i p -> (seq + i, p)) payloads in
            let f = Persist.Wal.frames records in
            if (List.length records > 1) <> (f.[0] = '\x00') then
              QCheck.Test.fail_reportf "seq %d: %d records in the wrong frame shape" seq
                (List.length records);
            (seq + List.length records, (records, f) :: acc))
          (first, []) groups
      in
      let frames = List.rev frames in
      let stream = String.concat "" (List.map snd frames) in
      List.for_all
        (fun cut ->
          let r = Persist.Wal.parse (String.sub stream 0 cut) in
          let rec whole recs n = function
            | (rs, f) :: rest when n + String.length f <= cut ->
              whole (List.rev_append rs recs) (n + String.length f) rest
            | _ -> (List.rev recs, n)
          in
          let expect, bytes = whole [] 0 frames in
          let replayed = Persist.Wal.replay r ~after:(first - 1) (fun _ -> Ok ()) in
          r.Persist.Wal.records = expect
          && r.Persist.Wal.valid_bytes = bytes
          && replayed.Persist.Wal.applied = List.length expect
          && r.Persist.Wal.truncated = (bytes < cut))
        (List.init (String.length stream + 1) Fun.id))

(* A malformed batch frame cuts the log exactly where a CRC mismatch in
   the batch cuts it: the frame before it survives, the batch and every
   frame after it do not. Each malformed body carries a valid CRC, so
   only the batch rules can refuse it; the records must fill the body,
   so bytes after the last record that make no whole record (a varint
   cut short) are refused like a length past the body. *)
let test_batch_strictness () =
  let before = Persist.Wal.frame ~seq:1 "first" and after = Persist.Wal.frame ~seq:5 "after" in
  let batch body =
    let b = Buffer.create 64 in
    Buffer.add_char b '\x00';
    Persist.Wire.uint b (String.length body);
    Persist.Wire.u32 b (Persist.Crc32.digest body);
    Buffer.add_string b body;
    Buffer.contents b
  in
  let body payloads =
    encode Persist.Wire.uint 2 ^ String.concat "" (List.map (encode Persist.Wire.str) payloads)
  in
  let good = batch (body [ "bb"; "ccc"; "dddd" ]) in
  Alcotest.(check string) "the writer spells the batch so"
    (Persist.Wal.frames [ (2, "bb"); (3, "ccc"); (4, "dddd") ])
    good;
  let parse frame = Persist.Wal.parse (before ^ frame ^ after) in
  Alcotest.(check (list (pair int string))) "well formed"
    [ (1, "first"); (2, "bb"); (3, "ccc"); (4, "dddd"); (5, "after") ]
    (parse good).Persist.Wal.records;
  let cuts what frame =
    let r = parse frame in
    Alcotest.(check (list (pair int string))) (what ^ ": records") [ (1, "first") ]
      r.Persist.Wal.records;
    Alcotest.(check int) (what ^ ": valid bytes") (String.length before) r.Persist.Wal.valid_bytes;
    Alcotest.(check bool) (what ^ ": truncated") true r.Persist.Wal.truncated
  in
  let flip s pos bit =
    String.mapi (fun i c -> if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c) s
  in
  cuts "crc mismatch" (flip good 3 0);
  cuts "a batch of one record" (batch (body [ "bb" ]));
  cuts "a batch of no record" (batch (body []));
  cuts "a record length past the body" (batch (body [ "bb"; "ccc" ] ^ "\x05dd"));
  cuts "bytes after the last record" (batch (body [ "bb"; "ccc" ] ^ "\x80"));
  cuts "a non-canonical record length"
    (batch (encode Persist.Wire.uint 2 ^ "\x82\x00bb" ^ encode Persist.Wire.str "ccc"));
  cuts "a non-canonical first seq"
    (batch ("\x82\x00" ^ String.concat "" (List.map (encode Persist.Wire.str) [ "bb"; "cc" ])));
  for pos = 0 to String.length good - 1 do
    for bit = 0 to 7 do
      cuts (Printf.sprintf "bit %d of byte %d flipped" bit pos) (flip good pos bit)
    done
  done

(* --- directed recovery ------------------------------------------------ *)

let test_clean_recover arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  let baseline = attest_all w.monitor in
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  Alcotest.(check int) "all records replayed" workload_ops report.Tyche.Monitor.rr_replayed;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck ~baseline m2;
  check_no_violations m2

let test_crash_on_append arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  (match Fault.with_plan (Fault.nth "wal.append" 5) (fun () -> ignore (workload w)) with
  | () -> Alcotest.fail "expected a crash at the 5th append"
  | exception Persist.Store.Crash _ -> ());
  let m2, report = get_ok_str (recover_from arch store) in
  (* Records 1-4 were fsynced; the torn 5th record survives only if the
     deterministic tear kept all its bytes. Either way: a consistent
     prefix, never more. *)
  let seq = report.Tyche.Monitor.rr_seq in
  if seq < 4 || seq > 5 then Alcotest.failf "recovered seq %d outside the 4-5 window" seq;
  check_fsck m2;
  check_no_violations m2

let test_fsync_loses_pending arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ~fsync_every:3 ();
  let fp_baseline = fingerprint w.monitor in
  (match Fault.with_plan (Fault.always "wal.fsync") (fun () -> ignore (workload w)) with
  | () -> Alcotest.fail "expected a crash at the first fsync"
  | exception Persist.Store.Crash _ -> ());
  let m2, report = get_ok_str (recover_from arch store) in
  (* The first fsync (after record 3) lost the whole pending buffer:
     nothing but the boot baseline is durable. *)
  Alcotest.(check int) "all unsynced records lost" 0 report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp_baseline (fingerprint m2);
  check_fsck m2

let test_crash_on_snapshot arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  let baseline = attest_all w.monitor in
  (match
     Fault.with_plan (Fault.always "snapshot.write") (fun () ->
         Tyche.Monitor.checkpoint w.monitor)
   with
  | () -> Alcotest.fail "expected a crash during the manifest append"
  | exception Persist.Store.Crash _ -> ());
  (* The torn manifest is detected and skipped; the WAL was not yet
     compacted, so recovery lands on the exact pre-crash state — and a fresh
     attestation over it is byte-identical in body to one taken before
     the crash (the acceptance criterion, checked literally here). *)
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  Alcotest.(check bool) "snapshot tail seen as torn" true report.Tyche.Monitor.rr_snapshot_torn;
  check_fingerprint_eq fp (fingerprint m2);
  List.iter
    (fun (domain, pre) ->
      let post = get_ok (Tyche.Monitor.attest m2 ~caller:os ~domain ~nonce:"fsck-nonce") in
      Alcotest.(check bool)
        (Printf.sprintf "attest body identical for domain %d" domain)
        true
        (Tyche.Fsck.body_equal pre post))
    baseline;
  check_fsck ~baseline m2

let test_crash_during_recovery arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  (* First recovery attempt dies writing its own closing checkpoint
     (reconstruction itself runs with injection suspended). The store
     must still hold the old snapshot and un-reset WAL... *)
  (match Fault.with_plan (Fault.always "snapshot.write") (fun () -> recover_from arch store) with
  | Ok _ -> Alcotest.fail "expected the recovery checkpoint to crash"
  | Error e -> Alcotest.failf "recovery failed instead of crashing: %s" e
  | exception Persist.Store.Crash _ -> ());
  (* ...so a second attempt succeeds from the same bytes. *)
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

let test_checkpoint_repairs_torn_tail arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  (match
     Fault.with_plan (Fault.always "snapshot.write") (fun () ->
         Tyche.Monitor.checkpoint w.monitor)
   with
  | () -> Alcotest.fail "expected a crash during the manifest append"
  | exception Persist.Store.Crash _ -> ());
  (* The first restart replays the WAL past the torn manifest tail and
     closes with a checkpoint. That checkpoint must repair the tail
     before appending: a manifest left after the tear would be durable
     yet invisible to the newest-valid scan, and the WAL compaction
     that follows it would destroy the only other copy of the history. *)
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "first restart: seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  (* A second restart must land on the same state from the checkpoint
     alone — before tail repair it found only the boot-time checkpoint
     and an empty WAL. *)
  let m3, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "second restart: seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  Alcotest.(check int) "second restart: nothing to replay" 0 report.Tyche.Monitor.rr_replayed;
  check_fingerprint_eq fp (fingerprint m3);
  check_fsck m3

let test_no_valid_snapshot arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  (* Same durable WAL, but a snapshot stream of garbage: recovery must
     fall back to the boot baseline and replay the whole log. *)
  let wrecked =
    Persist.Store.mem
      ~preload:
        [ (Persist.Store.wal_blob, Persist.Store.read store Persist.Store.wal_blob);
          (Persist.Store.snap_blob, "this is not a manifest stream") ]
      ()
  in
  let m2, report = get_ok_str (recover_from arch wrecked) in
  Alcotest.(check int) "no snapshot used" (-1) report.Tyche.Monitor.rr_snapshot_seq;
  Alcotest.(check bool) "garbage detected" true report.Tyche.Monitor.rr_snapshot_torn;
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

(* A checkpoint record that passes its CRC (and, for a segment, its
   hash) but carries a bad enum code or range is undecodable: recovery
   skips it like a CRC mismatch and falls back to the previous
   checkpoint plus the WAL, instead of failing. *)
let test_bad_record_skipped arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  let wal = Persist.Store.read store Persist.Store.wal_blob in
  Tyche.Monitor.checkpoint w.monitor;
  let records blob = (Persist.Wal.read store ~blob).Persist.Wal.records in
  let base, (seq, manifest) =
    match records Persist.Store.snap_blob with
    | [ base; newest ] -> (base, newest)
    | rs -> Alcotest.failf "expected two manifests, found %d" (List.length rs)
  in
  let segs = records Persist.Store.seg_blob in
  let splice s pos by =
    let after = pos + String.length by in
    String.sub s 0 pos ^ by ^ String.sub s after (String.length s - after)
  in
  let recover_with ~newest ~segs =
    let frames rs = String.concat "" (List.map (fun (seq, p) -> Persist.Wal.frame ~seq p) rs) in
    let preload =
      [ (Persist.Store.wal_blob, wal);
        (Persist.Store.snap_blob, frames [ base; (seq, newest) ]);
        (Persist.Store.seg_blob, frames segs) ]
    in
    let m2, report = get_ok_str (recover_from arch (Persist.Store.mem ~preload ())) in
    Alcotest.(check int) "fell back to the seq-0 checkpoint" 0
      report.Tyche.Monitor.rr_snapshot_seq;
    Alcotest.(check bool) "bad record counted as torn" true report.Tyche.Monitor.rr_snapshot_torn;
    Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
    check_fingerprint_eq fp (fingerprint m2);
    check_fsck m2
  in
  (* Domain 0's kind byte follows the version, four counters, the list
     count, its id and its name "os": the codec's own reader finds it. *)
  let kind_at =
    let r = Persist.Wire.reader manifest in
    ignore (Persist.Wire.get_u8 r);
    for _ = 1 to 4 do
      ignore (Persist.Wire.get_int r)
    done;
    ignore (Persist.Wire.get_uint r);
    ignore (Persist.Wire.get_int r);
    ignore (Persist.Wire.get_str r);
    Persist.Wire.pos r
  in
  recover_with ~newest:(splice manifest kind_at "\xff") ~segs;
  (* The newest segment's first node is domain 0's first memory root:
     give it an empty range, re-hash, and point the manifest at it. Its
     length follows the node count, its id, the memory tag and its base. *)
  let bucket, payload = List.nth segs (List.length segs - 1) in
  let old_hash = String.sub payload 0 32 in
  let body = String.sub payload 32 (String.length payload - 32) in
  let body =
    let r = Persist.Wire.reader body in
    ignore (Persist.Wire.get_uint r);
    ignore (Persist.Wire.get_int r);
    ignore (Persist.Wire.get_u8 r);
    ignore (Persist.Wire.get_int r);
    let len_at = Persist.Wire.pos r in
    ignore (Persist.Wire.get_int r);
    let zero = Buffer.create 1 in
    Persist.Wire.int zero 0;
    String.sub body 0 len_at ^ Buffer.contents zero
    ^ String.sub body (Persist.Wire.pos r) (String.length body - Persist.Wire.pos r)
  in
  let new_hash = Crypto.Sha256.(to_raw (string body)) in
  let rec hash_at i = if String.sub manifest i 32 = old_hash then i else hash_at (i + 1) in
  recover_with
    ~newest:(splice manifest (hash_at 0) new_hash)
    ~segs:(segs @ [ (bucket, new_hash ^ body) ])

let test_destroy_and_snapshot_cadence arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  (* Snapshot every 4 ops: the workload (10) plus a destroy (11) crosses
     two checkpoints, so recovery replays only the post-snapshot tail. *)
  Tyche.Monitor.enable_persistence w.monitor ~store ~snapshot_every:4 ();
  let sbx = workload w in
  get_ok (Tyche.Monitor.destroy_domain w.monitor ~caller:os ~domain:sbx);
  let fp = fingerprint w.monitor in
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" 11 report.Tyche.Monitor.rr_seq;
  Alcotest.(check bool) "replayed only the suffix" true (report.Tyche.Monitor.rr_replayed <= 3);
  Alcotest.(check int) "snapshot at the last multiple of 4" 8
    report.Tyche.Monitor.rr_snapshot_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

let get_durable m =
  match Tyche.Monitor.durable_seq m with
  | Some d -> d
  | None -> Alcotest.fail "durable_seq: persistence should be enabled"

(* A record that does not decode under a valid CRC stops replay:
   recovery cuts the log behind the records it applied, so an op
   acknowledged afterwards follows them. Keeping the bad record and its
   successors would give the new op the bad record's seq, and the next
   recovery would stop at the old record again and lose the op. *)
let test_replay_stops_at_bad_record arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let create m name =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name ~kind:Tyche.Domain.Sandbox)
  in
  let names = List.init 10 (Printf.sprintf "d%d") in
  let made = List.map (create w.monitor) names in
  let read blob = Persist.Store.read store blob in
  let records = (Persist.Wal.parse (read Persist.Store.wal_blob)).Persist.Wal.records in
  Alcotest.(check (list int)) "ten records" (List.init 10 succ) (List.map fst records);
  let wal =
    String.concat ""
      (List.map (fun (seq, p) -> Persist.Wal.frame ~seq (if seq = 5 then "\xff" else p)) records)
  in
  let copy =
    Persist.Store.mem
      ~preload:
        [ (Persist.Store.wal_blob, wal);
          (Persist.Store.snap_blob, read Persist.Store.snap_blob);
          (Persist.Store.seg_blob, read Persist.Store.seg_blob) ]
      ()
  in
  let m1, rep1 = get_ok_str (recover_from arch copy) in
  Alcotest.(check int) "records before the bad one applied" 4 rep1.Tyche.Monitor.rr_replayed;
  Alcotest.(check bool) "stopped at the bad record" true
    (rep1.Tyche.Monitor.rr_stopped_early <> None);
  Alcotest.(check bool) "the rest cut from the log" true rep1.Tyche.Monitor.rr_wal_truncated;
  let x = create m1 "x" in
  Alcotest.(check int) "acknowledged" 5 (get_durable m1);
  Alcotest.(check (list int)) "logged after the applied records" [ 5 ]
    (List.map fst (Persist.Wal.read copy ~blob:Persist.Store.wal_blob).Persist.Wal.records);
  let m2, rep2 = get_ok_str (recover_from arch copy) in
  Alcotest.(check (option string)) "replay ran to the end" None
    rep2.Tyche.Monitor.rr_stopped_early;
  Alcotest.(check int) "every acknowledged op recovered" 5 rep2.Tyche.Monitor.rr_seq;
  List.iter2
    (fun id name ->
      match Tyche.Monitor.find_domain m2 id with
      | Some d -> Alcotest.(check string) "domain survives" name (Tyche.Domain.name d)
      | None -> Alcotest.failf "acknowledged domain %s lost" name)
    (List.filteri (fun i _ -> i < 4) made @ [ x ])
    (List.filteri (fun i _ -> i < 4) names @ [ "x" ]);
  check_fsck m2

(* --- group commit ----------------------------------------------------- *)

let test_group_commit_ack_floor arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  (* Batch of 4: the 10-op workload flushes after ops 4 and 8; 9 and 10
     stay pending until the explicit flush. *)
  Tyche.Monitor.enable_persistence w.monitor ~store ~fsync_every:4 ();
  let _ = workload w in
  Alcotest.(check int) "acked through the last full batch" 8 (get_durable w.monitor);
  Tyche.Monitor.flush w.monitor;
  Alcotest.(check int) "flush acknowledges the tail" workload_ops (get_durable w.monitor);
  let fp = fingerprint w.monitor in
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "every acknowledged op recovered" workload_ops
    report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

let test_group_commit_unacked_may_drop arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ~fsync_every:4 ();
  let _ = workload w in
  (* Crash without flushing: ops 9-10 were never acknowledged, so losing
     them is within contract — but everything acknowledged must survive. *)
  let acked = get_durable w.monitor in
  Alcotest.(check int) "two ops pending at crash" 8 acked;
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check bool) "acked floor honored"
    true
    (report.Tyche.Monitor.rr_seq >= acked);
  Alcotest.(check int) "exactly the durable batches recovered" acked
    report.Tyche.Monitor.rr_seq;
  check_fsck m2

(* A batching queue writes nothing until its flush, then the whole
   batch in one append of one frame; a batch a checkpoint covers is
   never written. A queue of one writes each record's own frame. *)
let test_group_one_frame_per_flush () =
  let appends = ref [] in
  let inner = Persist.Store.mem () in
  let store =
    { inner with
      Persist.Store.append =
        (fun blob data ->
          appends := data :: !appends;
          inner.Persist.Store.append blob data) }
  in
  let g = Persist.Group.create ~max_batch:4 store in
  let add = List.iter (fun seq -> Persist.Group.append g (Printf.sprintf "r%d" seq)) in
  add [ 1; 2; 3 ];
  Alcotest.(check int) "nothing written before the flush" 0 (List.length !appends);
  Persist.Group.note_durable g ~seq:3;
  Persist.Group.flush g;
  Alcotest.(check int) "a covered batch is never written" 0 (List.length !appends);
  add [ 4; 5; 6; 7 ];
  Alcotest.(check int) "a full batch flushes in one append" 1 (List.length !appends);
  Alcotest.(check int) "and is acknowledged" 7 (Persist.Group.durable_seq g);
  let wal = Persist.Wal.read store ~blob:Persist.Store.wal_blob in
  Alcotest.(check (list (pair int string))) "its records"
    [ (4, "r4"); (5, "r5"); (6, "r6"); (7, "r7") ]
    wal.Persist.Wal.records;
  Alcotest.(check string) "in one batch frame"
    (Persist.Wal.frames wal.Persist.Wal.records)
    (List.hd !appends);
  Alcotest.(check char) "batch frame marker" '\x00' (List.hd !appends).[0];
  Alcotest.(check int) "numbered by the queue" 7 (Persist.Group.seq g);
  let g1 = Persist.Group.create store in
  Persist.Group.append g1 "r1";
  Alcotest.(check string) "at max_batch 1, the record's own frame" (Persist.Wal.frame ~seq:1 "r1")
    (List.hd !appends)

(* The same calls logged one record per frame (fsync_every 1) and 64
   records per frame: both WAL blobs hold the same (seq, payload)
   records, the batched one in fewer bytes, and both recover to the
   same state and attestation bodies. 131 records: two full batches
   and a partial third. *)
let test_batched_vs_unbatched arch () =
  let run fsync_every =
    let w = boot_arch arch in
    let m = w.monitor in
    let store = Persist.Store.mem () in
    Tyche.Monitor.enable_persistence m ~store ~fsync_every ();
    ignore (workload w);
    let sink =
      get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"sink" ~kind:Tyche.Domain.Sandbox)
    in
    let big = os_memory_cap w in
    let base =
      match Cap.Captree.resource (Tyche.Monitor.tree m) big with
      | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.base r
      | _ -> Alcotest.fail "os memory cap is not memory"
    in
    (* Share+revoke pairs: the RISC-V sink has PMP room for few
       scattered pages. *)
    for i = 0 to 59 do
      let page = Hw.Addr.Range.make ~base:(base + (i * Hw.Addr.page_size)) ~len:Hw.Addr.page_size in
      let c =
        get_ok
          (Tyche.Monitor.share m ~caller:os ~cap:big ~to_:sink ~rights:Cap.Rights.rw
             ~cleanup:Cap.Revocation.Zero ~subrange:page ())
      in
      get_ok (Tyche.Monitor.revoke m ~caller:os ~cap:c)
    done;
    Tyche.Monitor.flush m;
    store
  in
  let one = run 1 and batched = run 64 in
  let wal store = Persist.Store.read store Persist.Store.wal_blob in
  let records store = (Persist.Wal.parse (wal store)).Persist.Wal.records in
  Alcotest.(check int) "records logged" 131 (List.length (records one));
  Alcotest.(check (list (pair int string))) "same records" (records one) (records batched);
  if String.length (wal batched) >= String.length (wal one) then
    Alcotest.failf "batched blob %d B, one record per frame %d B" (String.length (wal batched))
      (String.length (wal one));
  let m1, r1 = get_ok_str (recover_from arch one) in
  let m64, r64 = get_ok_str (recover_from arch batched) in
  Alcotest.(check int) "every record replayed" 131 r64.Tyche.Monitor.rr_replayed;
  Alcotest.(check int) "same seq" r1.Tyche.Monitor.rr_seq r64.Tyche.Monitor.rr_seq;
  check_fingerprint_eq (fingerprint m1) (fingerprint m64);
  List.iter2
    (fun (id, a) (id', b) ->
      Alcotest.(check int) "same domain" id id';
      Alcotest.(check bool) (Printf.sprintf "domain %d attestation body" id) true
        (Tyche.Fsck.body_equal a b))
    (attest_all m1) (attest_all m64)

(* --- incremental checkpoints, compaction, GC -------------------------- *)

let test_wal_compaction arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ~snapshot_every:4 ();
  let _ = workload w in
  (* Cadence checkpoints at seq 4 and 8 compacted their prefixes: only
     the suffix the newest manifest does not cover remains. *)
  let wal = Persist.Wal.read store ~blob:Persist.Store.wal_blob in
  Alcotest.(check (list int)) "wal holds only the uncovered suffix" [ 9; 10 ]
    (List.map fst wal.Persist.Wal.records);
  Tyche.Monitor.checkpoint w.monitor;
  let wal = Persist.Wal.read store ~blob:Persist.Store.wal_blob in
  Alcotest.(check int) "wal empty after explicit checkpoint" 0
    (List.length wal.Persist.Wal.records);
  let fp = fingerprint w.monitor in
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  Alcotest.(check int) "manifest current, nothing to replay" 0
    report.Tyche.Monitor.rr_replayed;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

let test_incremental_dedup arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  Tyche.Monitor.checkpoint w.monitor;
  let segs_len () = String.length (Persist.Store.read store Persist.Store.seg_blob) in
  let before = segs_len () in
  (* No mutation between checkpoints: content addressing must recognize
     every bucket and append zero new segment bytes. *)
  Tyche.Monitor.checkpoint w.monitor;
  Tyche.Monitor.checkpoint w.monitor;
  Alcotest.(check int) "clean checkpoints append no segments" before (segs_len ());
  (* A mutation dirties exactly one bucket: the delta is one segment,
     not a full tree serialization. *)
  get_ok (Tyche.Monitor.set_flush_policy w.monitor ~caller:os ~domain:os false);
  Tyche.Monitor.checkpoint w.monitor;
  Alcotest.(check int) "domain-only change writes no segments" before (segs_len ())

let test_segment_gc arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let peer =
    get_ok
      (Tyche.Monitor.create_domain w.monitor ~caller:os ~name:"gc-peer"
         ~kind:Tyche.Domain.Sandbox)
  in
  let mem = os_memory_cap w in
  (* Each round shares a fresh cap (new id -> new bucket contents) and
     checkpoints: distinct segment versions pile up in the blob until
     the GC threshold trips and the rewrite keeps only live hashes. *)
  for _ = 1 to 14 do
    let _ =
      get_ok
        (Tyche.Monitor.share w.monitor ~caller:os ~cap:mem ~to_:peer
           ~rights:Cap.Rights.read_only ~cleanup:Cap.Revocation.Keep ())
    in
    Tyche.Monitor.checkpoint w.monitor
  done;
  let live =
    List.length (Persist.Wal.read store ~blob:Persist.Store.seg_blob).Persist.Wal.records
  in
  if live > 6 then Alcotest.failf "segment GC never ran: %d segment versions durable" live;
  let fp = fingerprint w.monitor in
  let m2, _ = get_ok_str (recover_from arch store) in
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

let test_crash_mid_segment_write arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  (match
     Fault.with_plan (Fault.always "segment.write") (fun () ->
         Tyche.Monitor.checkpoint w.monitor)
   with
  | () -> Alcotest.fail "expected a crash during the segment write"
  | exception Persist.Store.Crash _ -> ());
  (* Torn segment bytes are unreferenced garbage: the old manifest and
     the intact WAL reconstruct the exact pre-crash state. *)
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

let test_crash_mid_manifest_swap arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  (match
     Fault.with_plan (Fault.always "manifest.swap") (fun () ->
         Tyche.Monitor.checkpoint w.monitor)
   with
  | () -> Alcotest.fail "expected a crash during the manifest swap"
  | exception Persist.Store.Crash _ -> ());
  (* The manifest — the checkpoint's commit point — is torn: recovery
     must skip it and fall back to the previous record plus the WAL. *)
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

(* --- directory-fsync crash window (store file backend) ---------------- *)

let test_crash_on_dir_fsync arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  (* The checkpoint's WAL compaction dies before its rename/truncation
     is durable: manifest new, WAL old. Replay filters the covered
     records, so the double coverage is benign. *)
  (match
     Fault.with_plan (Fault.nth "store.dir_fsync" 1) (fun () ->
         Tyche.Monitor.checkpoint w.monitor)
   with
  | () -> Alcotest.fail "expected a crash at the directory barrier"
  | exception Persist.Store.Crash _ -> ());
  let wal = Persist.Wal.read store ~blob:Persist.Store.wal_blob in
  Alcotest.(check int) "wal survived un-retired" workload_ops
    (List.length wal.Persist.Wal.records);
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  Alcotest.(check int) "covered records filtered, not replayed" 0
    report.Tyche.Monitor.rr_replayed;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

let test_dir_fsync_on_file_store () =
  let dir, remove = temp_store_dir "tyche-dirsync-" in
  let w = boot_x86 () in
  let store = Persist.Store.file ~dir in
  let before = Obs.Metrics.counter_value "store.dir_fsync" in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let sbx = workload w in
  Tyche.Monitor.checkpoint w.monitor;
  (* File creation and every WAL-retiring rename must be followed by a
     parent-directory fsync, or the checkpoint can vanish on power
     loss — the counter proves the barrier actually ran. *)
  let dir_fsyncs = Obs.Metrics.counter_value "store.dir_fsync" - before in
  if dir_fsyncs < 2 then
    Alcotest.failf "expected directory fsyncs on create+rename, saw %d" dir_fsyncs;
  (* And the same crash window as the mem test, on the real filesystem.
     One more operation first: a checkpoint with no WAL prefix to retire
     never reaches the rename barrier. *)
  get_ok (Tyche.Monitor.destroy_domain w.monitor ~caller:os ~domain:sbx);
  let fp = fingerprint w.monitor in
  (match
     Fault.with_plan (Fault.nth "store.dir_fsync" 1) (fun () ->
         Tyche.Monitor.checkpoint w.monitor)
   with
  | () -> Alcotest.fail "expected a crash at the directory barrier"
  | exception Persist.Store.Crash _ -> ());
  let reopened = Persist.Store.file ~dir in
  let m2, report = get_ok_str (recover_from `X86 reopened) in
  Alcotest.(check int) "seq recovered" (workload_ops + 1) report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2;
  remove ()

let test_file_store_roundtrip () =
  let dir, remove = temp_store_dir "tyche-store-" in
  let w = boot_x86 () in
  let store = Persist.Store.file ~dir in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  (* Reopen the directory cold, as a restarted process would. *)
  let reopened = Persist.Store.file ~dir in
  let m2, report = get_ok_str (recover_from `X86 reopened) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2;
  remove ()

(* [replace] substitutes a blob's durable contents and drops its
   unflushed bytes, on the file store as on the mem device: bytes
   appended before the replace must not be flushed behind the new
   contents by the next fsync, while bytes appended after it must. *)
let test_replace_drops_pending () =
  let dir, remove = temp_store_dir "tyche-replace-" in
  let blob = "fleet" in
  List.iter
    (fun store ->
      let name = store.Persist.Store.store_name in
      Persist.Store.append store blob "durable-";
      Persist.Store.fsync store blob;
      Persist.Store.append store blob "STALE-PENDING";
      Persist.Store.replace store blob "snapshot";
      Persist.Store.fsync store blob;
      Alcotest.(check string) (name ^ ": replace drops pending") "snapshot"
        (Persist.Store.read store blob);
      Persist.Store.append store blob "-next";
      Persist.Store.fsync store blob;
      Alcotest.(check string) (name ^ ": later appends kept") "snapshot-next"
        (Persist.Store.read store blob))
    [ Persist.Store.mem (); Persist.Store.file ~dir ];
  Alcotest.(check string) "file store reopens to the same bytes" "snapshot-next"
    (Persist.Store.read (Persist.Store.file ~dir) blob);
  remove ()

(* Monitor-level truncation semantics: recovery from ANY prefix of the
   durable WAL (including mid-record cuts) and any single bit flip must
   succeed from the seq-0 checkpoint, pass fsck, and recover at most the
   full history. *)
let stored_workload () =
  let w = boot_x86 () in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let read blob = Persist.Store.read store blob in
  ( read Persist.Store.wal_blob,
    (* A copy of the store with its WAL replaced. *)
    fun wal ->
      Persist.Store.mem
        ~preload:
          [ (Persist.Store.wal_blob, wal);
            (Persist.Store.snap_blob, read Persist.Store.snap_blob);
            (Persist.Store.seg_blob, read Persist.Store.seg_blob) ]
        () )

let qcheck_monitor_truncation =
  let wal, with_wal = stored_workload () in
  QCheck.Test.make ~name:"monitor: recovery from any WAL cut is prefix-consistent" ~count:25
    QCheck.(int_bound (String.length wal))
    (fun cut ->
      match recover_from `X86 (with_wal (String.sub wal 0 cut)) with
      | Error e -> QCheck.Test.fail_reportf "cut %d: recovery failed: %s" cut e
      | Ok (m2, report) ->
        if report.Tyche.Monitor.rr_snapshot_seq <> 0 then
          QCheck.Test.fail_reportf "cut %d: recovered from checkpoint %d, not seq 0" cut
            report.Tyche.Monitor.rr_snapshot_seq;
        if report.Tyche.Monitor.rr_seq > workload_ops then
          QCheck.Test.fail_reportf "cut %d: recovered beyond history" cut;
        let r = Tyche.Fsck.check m2 in
        if not (Tyche.Fsck.ok r) then
          QCheck.Test.fail_reportf "cut %d: fsck: %s" cut (Format.asprintf "%a" Tyche.Fsck.pp r);
        true)

let qcheck_monitor_bitflip =
  let wal, with_wal = stored_workload () in
  QCheck.Test.make ~name:"monitor: recovery survives any WAL bit flip" ~count:25
    QCheck.(pair (int_bound (String.length wal - 1)) (int_bound 7))
    (fun (pos, bit) ->
      let b = Bytes.of_string wal in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      match recover_from `X86 (with_wal (Bytes.to_string b)) with
      | Error e -> QCheck.Test.fail_reportf "flip %d.%d: recovery failed: %s" pos bit e
      | Ok (m2, report) ->
        if report.Tyche.Monitor.rr_snapshot_seq <> 0 then
          QCheck.Test.fail_reportf "flip %d.%d: recovered from checkpoint %d, not seq 0" pos bit
            report.Tyche.Monitor.rr_snapshot_seq;
        let r = Tyche.Fsck.check m2 in
        if not (Tyche.Fsck.ok r) then
          QCheck.Test.fail_reportf "flip %d.%d: fsck: %s" pos bit
            (Format.asprintf "%a" Tyche.Fsck.pp r);
        true)

(* --- fault plan/suspend re-entrancy (satellite check) ----------------- *)

let reentry_point = Fault.register "test.persist.reentry"

let test_suspend_nests () =
  Alcotest.(check bool) "not suspended initially" false (Fault.suspended ());
  Fault.suspend (fun () ->
      Alcotest.(check bool) "suspended" true (Fault.suspended ());
      Fault.suspend (fun () ->
          Alcotest.(check bool) "still suspended when nested" true (Fault.suspended ()));
      Alcotest.(check bool) "inner exit keeps outer suspension" true (Fault.suspended ()));
  Alcotest.(check bool) "fully restored" false (Fault.suspended ())

let test_suspend_restores_on_raise () =
  (try Fault.suspend (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check bool) "suspension released after raise" false (Fault.suspended ());
  Fault.with_plan (Fault.always "test.persist.reentry") (fun () ->
      (try Fault.suspend (fun () -> raise Exit) with Exit -> ());
      match Fault.hit reentry_point with
      | () -> Alcotest.fail "plan should still be armed after suspended raise"
      | exception Fault.Injected _ -> ())

(* Parallel shards roll back — and so suspend — at the same time. Each
   domain's suspension is its own: a shared counter raced by concurrent
   rollbacks is left off zero, silently disabling later injection. *)
let test_suspend_per_domain () =
  let churn () =
    for _ = 1 to 200_000 do
      Fault.suspend ignore
    done
  in
  let others = List.init 2 (fun _ -> Stdlib.Domain.spawn churn) in
  churn ();
  List.iter Stdlib.Domain.join others;
  Fault.with_plan (Fault.plan []) (fun () ->
      Alcotest.(check bool) "injection still enabled" true (Fault.enabled ());
      let elsewhere =
        Fault.suspend (fun () -> Stdlib.Domain.join (Stdlib.Domain.spawn Fault.enabled))
      in
      Alcotest.(check bool) "another domain is not suspended" true elsewhere)

let test_with_plan_restores_on_raise () =
  let inert = Fault.plan [] in
  Fault.with_plan (Fault.always "test.persist.reentry") (fun () ->
      (try Fault.with_plan inert (fun () -> raise Exit) with Exit -> ());
      (* The outer plan must be re-armed, counters and all. *)
      match Fault.hit reentry_point with
      | () -> Alcotest.fail "outer plan not restored after inner raise"
      | exception Fault.Injected _ -> ());
  (* And fully disarmed outside every scope. *)
  Fault.hit reentry_point;
  Alcotest.(check bool) "disarmed" false (Fault.enabled ())

let test_store_points_registered () =
  let names = List.map Fault.name (Fault.points ()) in
  List.iter
    (fun n -> Alcotest.(check bool) n true (List.mem n names))
    [ "wal.append"; "wal.fsync"; "snapshot.write"; "segment.write"; "manifest.swap";
      "store.dir_fsync" ]

(* --- suite ------------------------------------------------------------ *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  let directed name f =
    [ Alcotest.test_case (name ^ " (x86)") `Quick (f `X86);
      Alcotest.test_case (name ^ " (riscv)") `Quick (f `Riscv) ]
  in
  Alcotest.run "persist"
    [ ( "framing",
        [ Alcotest.test_case "crc32 vectors" `Quick test_crc_vectors;
          Alcotest.test_case "frame/parse roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "op codec roundtrip" `Quick test_op_roundtrip;
          Alcotest.test_case "checkpoint golden bytes" `Quick test_checkpoint_golden;
          qt qcheck_truncation;
          qt qcheck_bitflip;
          qt prop_frame_prefixes;
          Alcotest.test_case "malformed batch cuts like a crc mismatch" `Quick
            test_batch_strictness ] );
      ( "varints",
        [ Alcotest.test_case "int round-trips at every boundary" `Quick test_int_boundaries;
          Alcotest.test_case "malformed varints raise Corrupt" `Quick test_varint_rejects;
          qt prop_varint_roundtrip;
          qt prop_varint_strict ] );
      ( "recovery",
        directed "clean recover" test_clean_recover
        @ directed "crash at wal.append" test_crash_on_append
        @ directed "fsync loses pending" test_fsync_loses_pending
        @ directed "crash at snapshot.write" test_crash_on_snapshot
        @ directed "crash during recovery checkpoint" test_crash_during_recovery
        @ directed "checkpoint repairs torn snapshot tail" test_checkpoint_repairs_torn_tail
        @ directed "no valid snapshot" test_no_valid_snapshot
        @ directed "bad code or range skipped like a crc error" test_bad_record_skipped
        @ directed "destroy + snapshot cadence" test_destroy_and_snapshot_cadence
        @ [ Alcotest.test_case "file store cold reopen" `Quick test_file_store_roundtrip;
            Alcotest.test_case "replace drops pending bytes, mem and file" `Quick
              test_replace_drops_pending;
            qt qcheck_monitor_truncation;
            qt qcheck_monitor_bitflip ]
        @ directed "replay stopped at a bad record leaves no gap" test_replay_stops_at_bad_record );
      ( "group commit",
        directed "ack floor + explicit flush" test_group_commit_ack_floor
        @ directed "unacked batch may drop, never tear" test_group_commit_unacked_may_drop
        @ [ Alcotest.test_case "one frame per flush, covered batch never written" `Quick
              test_group_one_frame_per_flush ]
        @ directed "batched and unbatched logs replay alike" test_batched_vs_unbatched );
      ( "incremental checkpoints",
        directed "wal compaction" test_wal_compaction
        @ directed "content-addressed dedup" test_incremental_dedup
        @ directed "segment gc" test_segment_gc
        @ directed "crash mid segment write" test_crash_mid_segment_write
        @ directed "crash mid manifest swap" test_crash_mid_manifest_swap );
      ( "directory fsync",
        directed "crash at the rename barrier" test_crash_on_dir_fsync
        @ [ Alcotest.test_case "file backend fsyncs its directory" `Quick
              test_dir_fsync_on_file_store ] );
      ( "fault re-entrancy",
        [ Alcotest.test_case "suspend nests" `Quick test_suspend_nests;
          Alcotest.test_case "suspend restores on raise" `Quick test_suspend_restores_on_raise;
          Alcotest.test_case "suspend is per domain" `Quick test_suspend_per_domain;
          Alcotest.test_case "with_plan restores on raise" `Quick test_with_plan_restores_on_raise;
          Alcotest.test_case "store points registered" `Quick test_store_points_registered ] ) ]
