(* The sharded federation: global-namespace routing, the lock-free
   read path under genuinely parallel writers, and 2PC
   atomicity-under-fault for the one cross-shard mutation (domain
   destruction). *)

open Testkit

let page = Hw.Addr.page_size
let range ~base ~len = Hw.Addr.Range.make ~base ~len
let stride = Tyche.Sharded.addr_stride

let violations_str vs =
  String.concat "; " (List.map (Format.asprintf "%a" Tyche.Invariants.pp_violation) vs)

let check_shards t =
  for i = 0 to Tyche.Sharded.shard_count t - 1 do
    let m = Tyche.Sharded.shard_monitor t i in
    (match Tyche.Invariants.check_all m with
    | [] -> ()
    | vs -> Alcotest.failf "shard %d invariants: %s" i (violations_str vs));
    let r = Tyche.Fsck.check m in
    if not (Tyche.Fsck.ok r) then
      Alcotest.failf "shard %d fsck: %a" i Tyche.Fsck.pp r
  done

(* Per-shard structural snapshot: the captree image plus the id
   allocator. Equality across a failed 2PC is the rollback proof. *)
let snapshot t =
  Array.init (Tyche.Sharded.shard_count t) (fun i ->
      let tree = Tyche.Monitor.tree (Tyche.Sharded.shard_monitor t i) in
      (Cap.Captree.dump tree, Cap.Captree.next_id tree))

(* ---------------- namespace routing ---------------- *)

let create t ?(kind = Tyche.Domain.Sandbox) name = id_of (fed t (Create_domain { name; kind }))

let share t ?(rights = Cap.Rights.rw) ?(cleanup = Cap.Revocation.Zero) ?subrange cap to_ =
  fed t (Share { cap; to_; rights; cleanup; subrange })

let test_global_ids () =
  let t = boot_sharded ~shards:3 () in
  Alcotest.(check int) "shards" 3 (Tyche.Sharded.shard_count t);
  Alcotest.(check int) "cores" 6 (Tyche.Sharded.cores t);
  (* Domain creation broadcasts: ids agree on every shard. *)
  let d = create t "worker" in
  for i = 0 to 2 do
    match Tyche.Monitor.find_domain (Tyche.Sharded.shard_monitor t i) d with
    | Some dd -> Alcotest.(check string) "name" "worker" (Tyche.Domain.name dd)
    | None -> Alcotest.failf "domain %d missing on shard %d" d i
  done;
  (* A carve on shard 1's memory routes to shard 1 and returns a
     global id that decodes back to shard 1. *)
  let c1 = sharded_os_memory_cap t ~shard:1 in
  Alcotest.(check int) "cap shard" 1 (Tyche.Sharded.cap_shard c1);
  let sub = range ~base:(stride + (16 * page)) ~len:(4 * page) in
  let carved = id_of (fed t (Carve { cap = c1; subrange = sub })) in
  Alcotest.(check int) "carved cap shard" 1 (Tyche.Sharded.cap_shard carved);
  (* The indexed queries translate back and forth. *)
  Alcotest.(check int) "refcount" 1
    (Tyche.Sharded.refcount t (Cap.Resource.Memory sub));
  let shared = id_of (share t carved d) in
  Alcotest.(check int) "refcount after share" 2
    (Tyche.Sharded.refcount t (Cap.Resource.Memory sub));
  Alcotest.(check (list int)) "holders" [ os; d ]
    (List.sort compare (Tyche.Sharded.holders t (Cap.Resource.Memory sub)));
  Alcotest.(check (list int)) "caps_of worker" [ shared ] (Tyche.Sharded.caps_of t d);
  (* A subrange that straddles two shard windows is rejected, not
     silently clipped. *)
  (match fed t (Carve { cap = c1; subrange = range ~base:(stride - page) ~len:(2 * page) }) with
  | Error (Tyche.Monitor.Cap_error Cap.Captree.Bad_subrange) -> ()
  | _ -> Alcotest.fail "cross-window carve should be Bad_subrange");
  (* Unknown shard bits surface as No_such_capability with the global id. *)
  (match fed t (Revoke { cap = 63 }) with
  | Error (Tyche.Monitor.Cap_error (Cap.Captree.No_such_capability 63)) -> ()
  | _ -> Alcotest.fail "shard-63 cap should be No_such_capability 63");
  check_shards t

let test_shard_count_invariance () =
  (* A workload confined to shard 0 produces identical global ids and
     responses under 1 shard and under 4. *)
  let run shards =
    let t = boot_sharded ~shards () in
    let c0 = sharded_os_memory_cap t ~shard:0 in
    let d = create t ~kind:Tyche.Domain.Enclave "inv" in
    let carved = id_of (fed t (Carve { cap = c0; subrange = range ~base:(64 * page) ~len:(8 * page) })) in
    let shared = id_of (share t ~cleanup:Cap.Revocation.Zero_and_flush carved d) in
    let pair = get_ok (fed t (Split { cap = carved; at = 68 * page })) in
    (d, carved, shared, pair, Tyche.Sharded.caps_of t d)
  in
  let r1 = run 1 and r4 = run 4 in
  if r1 <> r4 then Alcotest.fail "shard-0-confined ids diverge between 1 and 4 shards"

(* ---------------- cross-shard destruction (2PC) ---------------- *)

(* A domain holding capabilities on every shard: destruction must run
   the revocation cascade on each of them atomically. *)
let spread_domain t =
  let n = Tyche.Sharded.shard_count t in
  let d = create t "spread" in
  let subs =
    List.init n (fun i ->
        let sub = range ~base:((i * stride) + (32 * page)) ~len:(4 * page) in
        let carved =
          id_of ~msg:"carve" (fed t (Carve { cap = sharded_os_memory_cap t ~shard:i; subrange = sub }))
        in
        ignore (id_of ~msg:"share" (share t carved d));
        sub)
  in
  (d, subs)

let destroy t d = fed t (Destroy { domain = d })

let test_destroy_spans_shards () =
  let t = boot_sharded ~shards:3 () in
  let d, subs = spread_domain t in
  List.iter
    (fun sub ->
      Alcotest.(check int) "shared refcount" 2 (Tyche.Sharded.refcount t (Cap.Resource.Memory sub)))
    subs;
  ignore (get_ok ~msg:"destroy" (destroy t d));
  List.iter
    (fun sub ->
      Alcotest.(check int) "refcount after destroy" 1
        (Tyche.Sharded.refcount t (Cap.Resource.Memory sub)))
    subs;
  for i = 0 to 2 do
    if Tyche.Monitor.find_domain (Tyche.Sharded.shard_monitor t i) d <> None then
      Alcotest.failf "domain survived on shard %d" i
  done;
  check_shards t

let test_2pc_prepare_fault () =
  let t = boot_sharded ~shards:3 () in
  let d, _subs = spread_domain t in
  let before = snapshot t in
  (* Lose the coordinator after every shard prepared its journal but
     before the commit decision: every shard must roll back. *)
  Fault.with_plan (Fault.nth "shard.prepare" 1) (fun () ->
      match destroy t d with
      | Ok _ -> Alcotest.fail "destroy should abort on a prepare fault"
      | Error (Tyche.Monitor.Backend_failure msg) ->
        if not (contains_substring msg "rolled back") then
          Alcotest.failf "unexpected abort message: %s" msg
      | Error e -> Alcotest.failf "unexpected error: %s" (Tyche.Monitor.error_to_string e));
  let after = snapshot t in
  Array.iteri
    (fun i (dump, next) ->
      let dump', next' = after.(i) in
      if dump <> dump' || next <> next' then
        Alcotest.failf "shard %d state changed across an aborted 2PC" i)
    before;
  for i = 0 to 2 do
    if Tyche.Monitor.find_domain (Tyche.Sharded.shard_monitor t i) d = None then
      Alcotest.failf "domain lost on shard %d despite rollback" i
  done;
  check_shards t;
  (* The federation is fully functional after the abort. *)
  ignore (get_ok ~msg:"destroy after abort" (destroy t d));
  check_shards t

let test_2pc_commit_fault () =
  let t = boot_sharded ~shards:3 () in
  let d, subs = spread_domain t in
  (* A fault after the commit decision must not yield a partial state:
     post-decision per-shard commits are absorbed and completed. *)
  Fault.with_plan (Fault.nth "shard.commit" 1) (fun () ->
      ignore (get_ok ~msg:"destroy past commit point" (destroy t d)));
  for i = 0 to 2 do
    if Tyche.Monitor.find_domain (Tyche.Sharded.shard_monitor t i) d <> None then
      Alcotest.failf "domain survived on shard %d past the commit point" i
  done;
  List.iter
    (fun sub ->
      Alcotest.(check int) "refcount" 1 (Tyche.Sharded.refcount t (Cap.Resource.Memory sub)))
    subs;
  check_shards t

(* ---------------- parallel execution ---------------- *)

(* Fresh per-shard worlds for recovery to rebuild onto, matching
   [boot_sharded ~seed]'s shards. *)
let recovery_mk seed ~shard = shard_world ~seed ~shard ()

(* Writers share and revoke on their own shard from separate OCaml
   Domains while a reader sweeps the optimistic queries and the main
   Domain flushes the group-commit log (64 records a batch): every
   call succeeds, per-shard invariants and fsck hold, the WAL holds
   seqs 1..persist_seq once each, and recovery rebuilds each shard's
   captree. A flush outside the log's lock races the writers' appends
   and loses or repeats records. *)
let test_parallel_writers () =
  let shards = 2 and iters = 8_000 and seed = 0x9A7L in
  let store = Persist.Store.mem () in
  let t = boot_sharded ~seed ~shards () in
  Tyche.Sharded.enable_persistence t ~store ~fsync_every:64 ();
  let d = create t "load" in
  let finished = Atomic.make 0 in
  let writer shard () =
    let mem = sharded_os_memory_cap t ~shard in
    let ok = ref 0 in
    for i = 0 to iters - 1 do
      let sub = range ~base:((shard * stride) + ((256 + (i mod 64)) * page)) ~len:page in
      (match share t ~subrange:sub mem d with
      | Ok (Tyche.Api.R_cap c) ->
        incr ok;
        if Result.is_ok (fed t (Revoke { cap = c })) then incr ok
      | _ -> ())
    done;
    Atomic.incr finished;
    !ok
  in
  let reader () =
    for i = 0 to (iters * 2) - 1 do
      let shard = i mod shards in
      let sub = range ~base:((shard * stride) + ((256 + (i mod 64)) * page)) ~len:page in
      ignore (Tyche.Sharded.refcount t (Cap.Resource.Memory sub));
      ignore (Tyche.Sharded.holders t (Cap.Resource.Memory sub));
      ignore (Tyche.Sharded.caps_of t d)
    done
  in
  let writers = List.init shards (fun s -> Stdlib.Domain.spawn (writer s)) in
  let reading = Stdlib.Domain.spawn reader in
  while Atomic.get finished < shards do
    Tyche.Sharded.flush t
  done;
  List.iteri
    (fun s w ->
      Alcotest.(check int) (Printf.sprintf "shard %d calls" s) (2 * iters) (Stdlib.Domain.join w))
    writers;
  Stdlib.Domain.join reading;
  Tyche.Sharded.flush t;
  let logged = 1 + (2 * shards * iters) in
  Alcotest.(check (option int)) "every call logged" (Some logged) (Tyche.Sharded.persist_seq t);
  Alcotest.(check (list int)) "WAL seqs" (List.init logged succ)
    (List.map fst (Persist.Wal.read store ~blob:Persist.Store.wal_blob).Persist.Wal.records);
  let t', _ =
    Tyche.Sharded.recover ~shards ~rng:(Crypto.Rng.create ~seed) ~mk:(recovery_mk seed) ~store ()
  in
  Alcotest.(check bool) "recovery rebuilds every shard" true (snapshot t = snapshot t');
  check_shards t;
  ignore (get_ok ~msg:"destroy after load" (destroy t d));
  check_shards t

(* ---------------- seal + aggregate attestation ---------------- *)

(* A sealed enclave whose code sits on shard 0 and which holds [core]
   (a global id, possibly on another shard); returns it with the core
   capability it was given. *)
let sealed_enclave t ~core =
  let d = create t ~kind:Tyche.Domain.Enclave "encl" in
  let code = range ~base:(128 * page) ~len:(2 * page) in
  let carved = id_of (fed t (Carve { cap = sharded_os_memory_cap t ~shard:0; subrange = code })) in
  ignore
    (get_ok
       (fed t
          (Grant { cap = carved; to_ = d; rights = Cap.Rights.rx; cleanup = Cap.Revocation.Zero })));
  let core_cap =
    id_of
      (share t ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep
         (sharded_os_core_cap t core) d)
  in
  ignore (get_ok (fed t (Set_entry_point { domain = d; entry = Hw.Addr.Range.base code })));
  ignore (get_ok (fed t (Mark_measured { domain = d; range = code })));
  ignore (get_ok ~msg:"seal" (fed t (Seal { domain = d })));
  (d, code, core_cap)

let test_seal_and_attest () =
  (* The verifier knows shard 0's TPM endorsement root out of band. *)
  let tpm0 = ref None in
  let t =
    Tyche.Sharded.boot ~shards:2 ~rng:(Crypto.Rng.create ~seed:0x71L)
      ~mk:(fun ~shard ->
        let ((_, _, tpm, _, _) as world) = shard_world ~shard () in
        if shard = 0 then tpm0 := Some tpm;
        world)
      ()
  in
  (* Code on shard 0, a core capability from shard 1: the attestation
     must aggregate resources across shards. *)
  let far_core = Tyche.Sharded.cores_per_shard t in
  let d, code, _ = sealed_enclave t ~core:far_core in
  (* Sealed on every shard, same measurement. *)
  let meas i =
    match Tyche.Monitor.find_domain (Tyche.Sharded.shard_monitor t i) d with
    | Some dd -> Tyche.Domain.measurement dd
    | None -> Alcotest.failf "domain missing on shard %d" i
  in
  Alcotest.(check bool) "sealed measurement replicated" true (meas 0 = meas 1 && meas 0 <> None);
  let att =
    match fed t (Attest { domain = d; nonce = "n-1" }) with
    | Ok (Tyche.Api.R_attestation a) -> a
    | r -> Alcotest.failf "attest: %a" Tyche.Api.pp_response r
  in
  (* The aggregate body sees the shard-0 region under its global range
     and the shard-1 core under its global id. *)
  let has_code =
    List.exists
      (fun (r : Tyche.Attestation.region_report) -> r.Tyche.Attestation.range = code && r.measured)
      att.Tyche.Attestation.regions
  in
  Alcotest.(check bool) "code region attested" true has_code;
  Alcotest.(check bool) "far core attested" true
    (List.mem_assoc far_core att.Tyche.Attestation.cores);
  (* One shard-0 quote certifies both tiers: its PCR 18 binds shard 0's
     monitor root and then the federation root that signs aggregates. *)
  let nonce = "fed-quote" in
  let quote = Tyche.Sharded.boot_quote t ~nonce in
  let verify bound =
    Verifier.Chain.verify_boot_chain
      ~tpm_root:(Rot.Tpm.endorsement_root (Option.get !tpm0))
      ~expected_pcrs:(Rot.Boot.expected_pcrs ~firmware ~loader:loader_blob ~monitor_image)
      ~bound ~nonce quote
  in
  let shard0_root = Tyche.Monitor.attestation_root (Tyche.Sharded.shard_monitor t 0) in
  let fed_root = Tyche.Sharded.attestation_root t in
  get_ok_str ~msg:"federation quote" (verify [ shard0_root; fed_root ]);
  get_ok_str ~msg:"aggregate attestation"
    (Verifier.Chain.verify_domain ~monitor_root:fed_root ~nonce:"n-1" att);
  List.iter
    (fun (what, bound) ->
      match verify bound with
      | Ok () -> Alcotest.failf "quote verified against %s" what
      | Error _ -> ())
    [ ("the federation root alone", [ fed_root ]);
      ("the shard-0 root alone", [ shard0_root ]);
      ("the reversed chain", [ fed_root; shard0_root ]) ];
  check_shards t

(* ---------------- durability ---------------- *)

let test_persist_recover () =
  let store = Persist.Store.mem () in
  let seed = 0x5AADL in
  let t = boot_sharded ~seed ~shards:2 () in
  Tyche.Sharded.enable_persistence t ~store ();
  let d, _ = spread_domain t in
  let d2 = create t "keep" in
  ignore (get_ok (destroy t d));
  (* A sealed enclave runs on a shard-1 core until its core capability
     is revoked; the next timer tick evicts it in favour of domain 0. *)
  let far_core = Tyche.Sharded.cores_per_shard t in
  let current t = Tyche.Monitor.current_domain (Tyche.Sharded.shard_monitor t 1) ~core:0 in
  let e, _, core_cap = sealed_enclave t ~core:far_core in
  ignore (get_ok ~msg:"call" (fed t ~core:far_core (Call { target = e })));
  Alcotest.(check int) "enclave running" e (current t);
  ignore (get_ok (fed t (Revoke { cap = core_cap })));
  Alcotest.(check int) "evicted to domain 0" os
    (get_ok (Tyche.Sharded.timer_tick t ~core:far_core));
  Tyche.Sharded.flush t;
  let fp i =
    let tree = Tyche.Monitor.tree (Tyche.Sharded.shard_monitor t i) in
    (Cap.Captree.dump tree, Cap.Captree.next_id tree)
  in
  let before = (fp 0, fp 1) in
  (* Rebuild the federation from the front-end WAL alone. *)
  let rng = Crypto.Rng.create ~seed in
  let t', rep = Tyche.Sharded.recover ~shards:2 ~rng ~mk:(recovery_mk seed) ~store () in
  (match rep.Tyche.Sharded.sr_stopped_early with
  | None -> ()
  | Some why -> Alcotest.failf "recovery stopped early: %s" why);
  Alcotest.(check int) "all records replayed" rep.Tyche.Sharded.sr_wal_records
    rep.Tyche.Sharded.sr_replayed;
  let fp' i =
    let tree = Tyche.Monitor.tree (Tyche.Sharded.shard_monitor t' i) in
    (Cap.Captree.dump tree, Cap.Captree.next_id tree)
  in
  if before <> (fp' 0, fp' 1) then Alcotest.fail "recovered captrees differ";
  if Tyche.Sharded.find_domain t' d <> None then Alcotest.fail "destroyed domain resurrected";
  (match Tyche.Sharded.find_domain t' d2 with
  | Some dd -> Alcotest.(check string) "surviving domain" "keep" (Tyche.Domain.name dd)
  | None -> Alcotest.fail "surviving domain lost");
  (* Replaying the eviction record hands the core back to the heir. *)
  Alcotest.(check int) "heir current after recovery" os (current t');
  check_shards t'

(* The front end keeps no checkpoints, so nothing compacts a torn WAL
   tail away: recovery must cut it before appending, or every frame
   written behind the tear is durable yet unreachable, and a second
   crash loses every operation acknowledged since the first. *)
let test_torn_tail_recovery () =
  let store = Persist.Store.mem () in
  let seed = 0x7EA7L in
  let recover () =
    Tyche.Sharded.recover ~shards:2 ~rng:(Crypto.Rng.create ~seed) ~mk:(recovery_mk seed)
      ~store ()
  in
  let t = boot_sharded ~seed ~shards:2 () in
  Tyche.Sharded.enable_persistence t ~store ();
  ignore (create t "a");
  ignore (create t "b");
  (match Fault.with_plan (Fault.nth "wal.append" 1) (fun () -> create t "torn") with
  | _ -> Alcotest.fail "the injected power failure did not crash the append"
  | exception Persist.Store.Crash _ -> ());
  let t1, rep1 = recover () in
  Alcotest.(check bool) "first recovery found a torn tail" true
    rep1.Tyche.Sharded.sr_wal_truncated;
  Alcotest.(check int) "durable prefix replayed" 2 rep1.Tyche.Sharded.sr_replayed;
  let names = List.init 5 (Printf.sprintf "after-%d") in
  let ids = List.map (create t1) names in
  Tyche.Sharded.flush t1;
  Alcotest.(check (option int)) "acknowledged" (Some 7) (Tyche.Sharded.durable_seq t1);
  Persist.Store.power_fail store;
  let t2, rep2 = recover () in
  Alcotest.(check (option string)) "replay ran to the end" None
    rep2.Tyche.Sharded.sr_stopped_early;
  Alcotest.(check (option int)) "every acknowledged op recovered" (Some 7)
    (Tyche.Sharded.persist_seq t2);
  List.iter2
    (fun id name ->
      match Tyche.Sharded.find_domain t2 id with
      | Some d -> Alcotest.(check string) "domain survives" name (Tyche.Domain.name d)
      | None -> Alcotest.failf "acknowledged domain %s lost" name)
    ids names;
  check_shards t2

(* A store whose WAL fsyncs are counted. *)
let counting_store () =
  let fsyncs = ref 0 in
  let inner = Persist.Store.mem () in
  ( { inner with
      Persist.Store.fsync =
        (fun blob ->
          if blob = Persist.Store.wal_blob then incr fsyncs;
          inner.Persist.Store.fsync blob) },
    fsyncs )

(* 64 share+revoke pairs on shard 1's memory: 128 logged ops. *)
let pairs t d =
  let mem = sharded_os_memory_cap t ~shard:1 in
  for i = 0 to 63 do
    let sub = range ~base:(stride + ((256 + i) * page)) ~len:page in
    let c = id_of (share t ~subrange:sub mem d) in
    ignore (get_ok (fed t (Revoke { cap = c })))
  done

(* A recovered federation logs with the group commit it is given, as a
   recovered monitor does: 128 ops cost 2 WAL fsyncs at 64 records a
   batch, and 128 without the argument. *)
let test_recover_keeps_group_commit () =
  let store, fsyncs = counting_store () in
  let seed = 0x64L in
  let t = boot_sharded ~seed ~shards:2 () in
  Tyche.Sharded.enable_persistence t ~store ~fsync_every:64 ();
  let d = create t "sink" in
  Tyche.Sharded.flush t;
  let fsyncs_after_recovery ?fsync_every () =
    let t', _ =
      Tyche.Sharded.recover ~shards:2 ?fsync_every ~rng:(Crypto.Rng.create ~seed)
        ~mk:(recovery_mk seed) ~store ()
    in
    fsyncs := 0;
    pairs t' d;
    !fsyncs
  in
  Alcotest.(check int) "128 ops at fsync_every 64" 2 (fsyncs_after_recovery ~fsync_every:64 ());
  Alcotest.(check int) "128 ops at the default" 128 (fsyncs_after_recovery ())

(* The batch size has one check, in [Persist.Group.create]: a
   federation refuses [fsync_every] 0, as a monitor does, instead of
   running at 1. *)
let test_fsync_every_zero_refused () =
  let seed = 0x2E0L in
  let store = Persist.Store.mem () in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s accepted fsync_every 0" what
    | exception Invalid_argument _ -> ()
  in
  refused "enable_persistence" (fun () ->
      Tyche.Sharded.enable_persistence (boot_sharded ~seed ~shards:2 ()) ~store ~fsync_every:0 ());
  refused "recover" (fun () ->
      ignore
        (Tyche.Sharded.recover ~shards:2 ~fsync_every:0 ~rng:(Crypto.Rng.create ~seed)
           ~mk:(recovery_mk seed) ~store ()));
  refused "Monitor.enable_persistence" (fun () ->
      Tyche.Monitor.enable_persistence (boot_x86 ()).monitor ~store ~fsync_every:0 ())

(* A batch frame whose second record does not decode, under a valid CRC:
   recovery applies the records before it and cuts the log behind
   them, so it must keep the batch's applied head, or the next append
   leaves a sequence gap that hides every later op from the next
   recovery. *)
let test_replay_stops_inside_batch () =
  let seed = 0xBA7CL in
  let recover store =
    Tyche.Sharded.recover ~shards:2 ~rng:(Crypto.Rng.create ~seed) ~mk:(recovery_mk seed)
      ~store ()
  in
  (* The records of five creates, logged one per frame. *)
  let made, records =
    let store = Persist.Store.mem () in
    let t = boot_sharded ~seed ~shards:2 () in
    Tyche.Sharded.enable_persistence t ~store ();
    let made = List.map (create t) [ "a"; "b"; "c"; "d"; "e" ] in
    (made, (Persist.Wal.read store ~blob:Persist.Store.wal_blob).Persist.Wal.records)
  in
  let batch = List.mapi (fun i (seq, p) -> (seq, if i = 1 then "\xff" else p)) (List.tl records) in
  let wal = Persist.Wal.frames [ List.hd records ] ^ Persist.Wal.frames batch in
  let store = Persist.Store.mem ~preload:[ (Persist.Store.wal_blob, wal) ] () in
  let t1, rep1 = recover store in
  Alcotest.(check int) "records before the bad one applied" 2 rep1.Tyche.Sharded.sr_replayed;
  Alcotest.(check bool) "stopped at the bad record" true
    (rep1.Tyche.Sharded.sr_stopped_early <> None);
  let ids = List.map (create t1) [ "x"; "y" ] in
  Tyche.Sharded.flush t1;
  Alcotest.(check (option int)) "acknowledged" (Some 4) (Tyche.Sharded.durable_seq t1);
  let t2, rep2 = recover store in
  Alcotest.(check (option string)) "no sequence gap" None rep2.Tyche.Sharded.sr_stopped_early;
  Alcotest.(check (option int)) "every acknowledged op recovered" (Some 4)
    (Tyche.Sharded.persist_seq t2);
  List.iter2
    (fun id name ->
      match Tyche.Sharded.find_domain t2 id with
      | Some d -> Alcotest.(check string) "domain survives" name (Tyche.Domain.name d)
      | None -> Alcotest.failf "acknowledged domain %s lost" name)
    (List.filteri (fun i _ -> i < 2) made @ ids)
    [ "a"; "b"; "x"; "y" ];
  check_shards t2

(* The same ops logged one record per frame (fsync_every 1) and 64
   records per frame by a 2-shard federation: both WAL blobs hold the
   same (seq, payload) records, the batched one in fewer bytes, and
   both recover to the same shards and attestation bodies. *)
let test_batched_vs_unbatched () =
  let seed = 0x7A11L in
  let run fsync_every =
    let store = Persist.Store.mem () in
    let t = boot_sharded ~seed ~shards:2 () in
    Tyche.Sharded.enable_persistence t ~store ~fsync_every ();
    let d, _ = spread_domain t in
    let e, _, _ = sealed_enclave t ~core:(Tyche.Sharded.cores_per_shard t) in
    pairs t d;
    Tyche.Sharded.flush t;
    (store, e)
  in
  let one, e = run 1 in
  let batched, _ = run 64 in
  let wal store = Persist.Store.read store Persist.Store.wal_blob in
  let records store = (Persist.Wal.parse (wal store)).Persist.Wal.records in
  Alcotest.(check bool) "over two batches logged" true (List.length (records one) > 128);
  Alcotest.(check (list (pair int string))) "same records" (records one) (records batched);
  if String.length (wal batched) >= String.length (wal one) then
    Alcotest.failf "batched blob %d B, one record per frame %d B" (String.length (wal batched))
      (String.length (wal one));
  let recovered store =
    let t, rep =
      Tyche.Sharded.recover ~shards:2 ~rng:(Crypto.Rng.create ~seed) ~mk:(recovery_mk seed)
        ~store ()
    in
    Alcotest.(check (option string)) "replay ran to the end" None
      rep.Tyche.Sharded.sr_stopped_early;
    let body =
      match fed t (Attest { domain = e; nonce = "batched" }) with
      | Ok (Tyche.Api.R_attestation a) -> a
      | r -> Alcotest.failf "attest: %a" Tyche.Api.pp_response r
    in
    (snapshot t, body)
  in
  let s1, a1 = recovered one and s64, a64 = recovered batched in
  Alcotest.(check bool) "same shard states" true (s1 = s64);
  Alcotest.(check bool) "same attestation body" true (Tyche.Fsck.body_equal a1 a64)

let () =
  Alcotest.run "sharded"
    [
      ( "namespace",
        [
          Alcotest.test_case "global ids route to shards" `Quick test_global_ids;
          Alcotest.test_case "shard-count invariance on shard 0" `Quick
            test_shard_count_invariance;
        ] );
      ( "2pc",
        [
          Alcotest.test_case "destroy spans shards" `Quick test_destroy_spans_shards;
          Alcotest.test_case "prepare fault rolls every shard back" `Quick
            test_2pc_prepare_fault;
          Alcotest.test_case "commit fault cannot leave a partial state" `Quick
            test_2pc_commit_fault;
        ] );
      ( "parallel",
        [ Alcotest.test_case "writers per shard + seqlock readers" `Quick test_parallel_writers ] );
      ( "attest",
        [ Alcotest.test_case "seal and aggregate attestation" `Quick test_seal_and_attest ] );
      ( "durability",
        [ Alcotest.test_case "WAL recovery rebuilds the federation" `Quick test_persist_recover;
          Alcotest.test_case "recovery cuts a torn WAL tail" `Quick test_torn_tail_recovery;
          Alcotest.test_case "recovery keeps group commit" `Quick
            test_recover_keeps_group_commit;
          Alcotest.test_case "replay stopped inside a batch leaves no gap" `Quick
            test_replay_stops_inside_batch;
          Alcotest.test_case "batched and unbatched logs replay alike" `Quick
            test_batched_vs_unbatched;
          Alcotest.test_case "fsync_every 0 is refused" `Quick test_fsync_every_zero_refused ] );
    ]
