(* Cross-machine delegation (Fleet): delegation enters the exporter's
   refcounts through the remote proxy, freezes pin remote-held caps
   against local revocation, cross-machine revocation converges through
   partitions and crash-restarts, reconciliation cleans up half-finished
   delegations, and the wire messages round-trip and reject every
   single-byte tamper. *)

let os = Tyche.Domain.initial
let key = "fleet-session-key-0123456789abcdef"

let fok ?(msg = "fleet op") = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg (Distributed.Fleet.error_to_string e)

type node = {
  w : Testkit.world;
  fleet : Distributed.Fleet.t;
  store : Persist.Store.t;
}

let mk_node ?(store = Persist.Store.mem ()) net name seed =
  let w = Testkit.boot_x86 ~seed () in
  Tyche.Monitor.enable_persistence w.Testkit.monitor ~store ();
  let fleet = Distributed.Fleet.create ~store ~monitor:w.Testkit.monitor ~name ~net () in
  { w; fleet; store }

let mk_pair ?store_a ?store_b () =
  let net = Distributed.Network.create () in
  let a = mk_node ?store:store_a net "alpha" 0x71L in
  let b = mk_node ?store:store_b net "beta" 0x72L in
  ignore (fok (Distributed.Fleet.connect a.fleet ~peer:"beta" ~key));
  ignore (fok (Distributed.Fleet.connect b.fleet ~peer:"alpha" ~key));
  (net, a, b)

(* "Power comes back": fresh machine + backend, monitor recovery from
   the store, fleet recovery from the same store's journal. The session
   key is volatile, so the caller re-connects. *)
let recover_monitor store =
  let machine = Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores:4 ~mem_size:(16 * 1024 * 1024) () in
  let rng = Crypto.Rng.create ~seed:0x99L in
  let tpm = Rot.Tpm.create rng in
  let br =
    Rot.Boot.measured_boot tpm machine ~firmware:Testkit.firmware
      ~loader:Testkit.loader_blob ~monitor_image:Testkit.monitor_image
  in
  let backend = Backend_x86.create machine () in
  match
    Tyche.Monitor.recover machine ~store ~backend ~tpm ~rng
      ~monitor_range:br.Rot.Boot.monitor_range
  with
  | Error e -> Alcotest.failf "recovery failed: %s" e
  | Ok (m, _report) -> (m, machine, backend)

let recover_node net name node =
  let m, machine, backend = recover_monitor node.store in
  let fleet = Distributed.Fleet.create ~store:node.store ~monitor:m ~name ~net () in
  { node with w = { node.w with Testkit.monitor = m; machine; backend }; fleet }

let pump ?(rounds = 200) a b =
  let n = ref 0 in
  while
    (not (Distributed.Fleet.idle a.fleet && Distributed.Fleet.idle b.fleet))
    && !n < rounds
  do
    incr n;
    Distributed.Fleet.tick a.fleet;
    Distributed.Fleet.tick b.fleet;
    ignore (Distributed.Fleet.poll a.fleet);
    ignore (Distributed.Fleet.poll b.fleet)
  done;
  if not (Distributed.Fleet.idle a.fleet && Distributed.Fleet.idle b.fleet) then
    Alcotest.failf "fleet did not converge within %d rounds" rounds

let os_mem_range node =
  let cap = Testkit.os_memory_cap node.w in
  let tree = Tyche.Monitor.tree node.w.Testkit.monitor in
  match Cap.Captree.resource tree cap with
  | Some (Cap.Resource.Memory r) -> (cap, r)
  | _ -> Alcotest.fail "os memory cap is not memory"

let delegate_page ?(rights = Cap.Rights.rw) node ~peer ~page =
  let cap, r = os_mem_range node in
  let sub =
    Hw.Addr.Range.make
      ~base:(Hw.Addr.Range.base r + (page * Hw.Addr.page_size))
      ~len:Hw.Addr.page_size
  in
  ( fok ~msg:"delegate"
      (Distributed.Fleet.delegate node.fleet ~caller:os ~cap ~peer ~subrange:sub
         ~rights ()),
    sub )

let check_clean node =
  Testkit.check_no_violations node.w.Testkit.monitor;
  let fr = Tyche.Fsck.check node.w.Testkit.monitor in
  if not (Tyche.Fsck.ok fr) then
    Alcotest.failf "fsck: %s" (Format.asprintf "%a" Tyche.Fsck.pp fr)

(* --- delegation visibility ------------------------------------------- *)

let test_delegate_visible () =
  let _net, a, b = mk_pair () in
  let del_id, sub = delegate_page a ~peer:"beta" ~page:3 in
  let proxy = Option.get (Distributed.Fleet.proxy a.fleet ~peer:"beta") in
  let pd = Option.get (Tyche.Monitor.find_domain a.w.Testkit.monitor proxy) in
  Alcotest.(check string) "proxy name" "remote:beta" (Tyche.Domain.name pd);
  (match Tyche.Domain.kind pd with
  | Tyche.Domain.Remote -> ()
  | k -> Alcotest.failf "proxy kind %s" (Tyche.Domain.kind_to_string k));
  let tree = Tyche.Monitor.tree a.w.Testkit.monitor in
  let dels = Distributed.Fleet.delegations a.fleet in
  Alcotest.(check int) "one delegation" 1 (List.length dels);
  let d = List.hd dels in
  Alcotest.(check bool) "proxy cap frozen" true
    (Cap.Captree.is_frozen tree d.Distributed.Fleet.proxy_cap);
  (* The remote holder is a first-class holder in the Fig. 4 view. *)
  let res = Cap.Resource.Memory sub in
  Alcotest.(check bool) "proxy among holders" true
    (List.mem proxy (Cap.Captree.holders tree res));
  Alcotest.(check int) "refcount counts both" 2 (Cap.Captree.refcount tree res);
  (* Deliver and ack. *)
  Alcotest.(check int) "b processed one" 1 (Distributed.Fleet.poll b.fleet);
  (match Distributed.Fleet.imports b.fleet with
  | [ i ] ->
    Alcotest.(check string) "origin" "alpha" i.Distributed.Fleet.imp_origin;
    Alcotest.(check int) "del id" del_id i.Distributed.Fleet.imp_del_id;
    Alcotest.(check int) "base" (Hw.Addr.Range.base sub) i.Distributed.Fleet.imp_base;
    Alcotest.(check int) "len" (Hw.Addr.Range.len sub) i.Distributed.Fleet.imp_len
  | l -> Alcotest.failf "expected 1 import, got %d" (List.length l));
  ignore (Distributed.Fleet.poll a.fleet);
  Alcotest.(check int) "outbox drained" 0 (Distributed.Fleet.backlog a.fleet ~peer:"beta");
  Alcotest.(check bool) "both idle" true
    (Distributed.Fleet.idle a.fleet && Distributed.Fleet.idle b.fleet);
  check_clean a;
  check_clean b

let test_delegate_errors () =
  let _net, a, _b = mk_pair () in
  let cap, _ = os_mem_range a in
  (match
     Distributed.Fleet.delegate a.fleet ~caller:os ~cap ~peer:"nobody"
       ~rights:Cap.Rights.rw ()
   with
  | Error (Distributed.Fleet.Unknown_peer _) -> ()
  | _ -> Alcotest.fail "expected Unknown_peer");
  let core = Testkit.os_core_cap a.w 1 in
  match
    Distributed.Fleet.delegate a.fleet ~caller:os ~cap:core ~peer:"beta"
      ~rights:Cap.Rights.rw ()
  with
  | Error (Distributed.Fleet.Not_memory _) -> ()
  | _ -> Alcotest.fail "expected Not_memory"

(* --- freeze semantics ------------------------------------------------- *)

let test_frozen_blocks_local_revoke () =
  let _net, a, b = mk_pair () in
  let _del, _sub = delegate_page a ~peer:"beta" ~page:5 in
  let parent, _ = os_mem_range a in
  let d = List.hd (Distributed.Fleet.delegations a.fleet) in
  (* Revoking the delegated cap, or any ancestor of it, is refused: the
     remote holder cannot be silently destroyed. *)
  (match Tyche.Monitor.revoke a.w.Testkit.monitor ~caller:os ~cap:d.Distributed.Fleet.proxy_cap with
  | Error (Tyche.Monitor.Cap_error (Cap.Captree.Frozen _)) -> ()
  | _ -> Alcotest.fail "revoking the proxy cap must be Frozen");
  (match Tyche.Monitor.revoke a.w.Testkit.monitor ~caller:os ~cap:parent with
  | Error (Tyche.Monitor.Cap_error (Cap.Captree.Frozen _)) -> ()
  | _ -> Alcotest.fail "revoking an ancestor must be Frozen");
  (* But unrelated sharing from the same parent still proceeds. *)
  let sbx =
    Testkit.get_ok
      (Tyche.Monitor.create_domain a.w.Testkit.monitor ~caller:os ~name:"sbx"
         ~kind:Tyche.Domain.Sandbox)
  in
  ignore
    (Testkit.get_ok
       (Tyche.Monitor.share a.w.Testkit.monitor ~caller:os ~cap:parent ~to_:sbx
          ~rights:Cap.Rights.read_only ~cleanup:Cap.Revocation.Keep
          ~subrange:
            (let _, r = os_mem_range a in
             Hw.Addr.Range.make ~base:(Hw.Addr.Range.base r) ~len:Hw.Addr.page_size)
          ()));
  pump a b;
  check_clean a

(* --- cross-machine revocation ---------------------------------------- *)

let test_revoke_roundtrip () =
  let _net, a, b = mk_pair () in
  let _del, sub = delegate_page a ~peer:"beta" ~page:7 in
  pump a b;
  Alcotest.(check int) "b imported" 1 (List.length (Distributed.Fleet.imports b.fleet));
  let d = List.hd (Distributed.Fleet.delegations a.fleet) in
  fok ~msg:"revoke"
    (Distributed.Fleet.revoke a.fleet ~caller:os ~cap:d.Distributed.Fleet.proxy_cap);
  Alcotest.(check (list int)) "pending until acked"
    [ d.Distributed.Fleet.proxy_cap ]
    (Distributed.Fleet.pending_revokes a.fleet);
  pump a b;
  Alcotest.(check int) "import dropped" 0 (List.length (Distributed.Fleet.imports b.fleet));
  Alcotest.(check int) "delegation gone" 0
    (List.length (Distributed.Fleet.delegations a.fleet));
  let tree = Tyche.Monitor.tree a.w.Testkit.monitor in
  let proxy = Option.get (Distributed.Fleet.proxy a.fleet ~peer:"beta") in
  Alcotest.(check bool) "remote holder dropped" false
    (List.mem proxy (Cap.Captree.holders tree (Cap.Resource.Memory sub)));
  Alcotest.(check (list int)) "nothing frozen" []
    (Cap.Captree.frozen_caps tree);
  check_clean a;
  check_clean b

(* An unauthorized caller is refused before anything irreversible: no
   freeze, no pending record, and — crucially — no Revoke datagram, so
   the peer's import is untouched. (Peers drop imports on receipt, long
   before the local cascade's own authorization check would run.) *)
let test_unauthorized_revoke_refused_up_front () =
  let _net, a, b = mk_pair () in
  let _del, _sub = delegate_page a ~peer:"beta" ~page:15 in
  pump a b;
  Alcotest.(check int) "b imported" 1 (List.length (Distributed.Fleet.imports b.fleet));
  let d = List.hd (Distributed.Fleet.delegations a.fleet) in
  let evil =
    Testkit.get_ok
      (Tyche.Monitor.create_domain a.w.Testkit.monitor ~caller:os ~name:"evil"
         ~kind:Tyche.Domain.Sandbox)
  in
  (match
     Distributed.Fleet.revoke a.fleet ~caller:evil ~cap:d.Distributed.Fleet.proxy_cap
   with
  | Error (Distributed.Fleet.Monitor_error (Tyche.Monitor.Denied _)) -> ()
  | Ok () -> Alcotest.fail "unauthorized revoke accepted"
  | Error e ->
    Alcotest.failf "wrong error class: %s" (Distributed.Fleet.error_to_string e));
  Alcotest.(check (list int)) "no pending revocation" []
    (Distributed.Fleet.pending_revokes a.fleet);
  Alcotest.(check int) "no Revoke queued" 0 (Distributed.Fleet.backlog a.fleet ~peer:"beta");
  Alcotest.(check bool) "delegation still active" true
    (d.Distributed.Fleet.del_state = Distributed.Fleet.Active);
  pump a b;
  Alcotest.(check int) "import survives" 1 (List.length (Distributed.Fleet.imports b.fleet));
  (* The owner still can. *)
  fok (Distributed.Fleet.revoke a.fleet ~caller:os ~cap:d.Distributed.Fleet.proxy_cap);
  pump a b;
  Alcotest.(check int) "import dropped by the owner" 0
    (List.length (Distributed.Fleet.imports b.fleet));
  check_clean a;
  check_clean b

let test_revoke_without_delegation_is_local () =
  let _net, a, _b = mk_pair () in
  let cap, r = os_mem_range a in
  let sub =
    Hw.Addr.Range.make ~base:(Hw.Addr.Range.base r + (9 * Hw.Addr.page_size))
      ~len:Hw.Addr.page_size
  in
  let carved =
    Testkit.get_ok (Tyche.Monitor.carve a.w.Testkit.monitor ~caller:os ~cap ~subrange:sub)
  in
  fok (Distributed.Fleet.revoke a.fleet ~caller:os ~cap:carved);
  Alcotest.(check (list int)) "no pending" [] (Distributed.Fleet.pending_revokes a.fleet);
  check_clean a

(* --- partitions and degraded mode ------------------------------------ *)

let test_partition_degraded_and_heal () =
  let net, a, b = mk_pair () in
  let _d1, _ = delegate_page a ~peer:"beta" ~page:11 in
  pump a b;
  Distributed.Network.partition net "alpha" "beta";
  let _d2, sub2 = delegate_page a ~peer:"beta" ~page:12 in
  (* Retry rounds run dry against the partition; the channel degrades
     but local work proceeds and nothing is leaked. *)
  for _ = 1 to 8 do
    Distributed.Fleet.tick a.fleet;
    ignore (Distributed.Fleet.poll a.fleet)
  done;
  (match Distributed.Fleet.peer_state a.fleet ~peer:"beta" with
  | Some (Distributed.Fleet.Degraded _) -> ()
  | _ -> Alcotest.fail "expected Degraded after silent retries");
  Alcotest.(check int) "outbox retained" 1 (Distributed.Fleet.backlog a.fleet ~peer:"beta");
  Alcotest.(check int) "only the first import" 1
    (List.length (Distributed.Fleet.imports b.fleet));
  ignore
    (Testkit.get_ok
       (Tyche.Monitor.create_domain a.w.Testkit.monitor ~caller:os ~name:"local-ok"
          ~kind:Tyche.Domain.Sandbox));
  (* Revocation initiated during the partition stays pending. *)
  let d1 =
    List.find
      (fun d -> d.Distributed.Fleet.del_state = Distributed.Fleet.Active
                && d.Distributed.Fleet.del_seq = 1)
      (Distributed.Fleet.delegations a.fleet)
  in
  fok (Distributed.Fleet.revoke a.fleet ~caller:os ~cap:d1.Distributed.Fleet.proxy_cap);
  for _ = 1 to 4 do
    Distributed.Fleet.tick a.fleet
  done;
  Alcotest.(check int) "revocation pending through partition" 1
    (List.length (Distributed.Fleet.pending_revokes a.fleet));
  Distributed.Network.heal net "alpha" "beta";
  pump a b;
  (match Distributed.Fleet.peer_state a.fleet ~peer:"beta" with
  | Some Distributed.Fleet.Healthy -> ()
  | _ -> Alcotest.fail "expected Healthy after heal");
  (* Converged: d1 revoked everywhere, d2 delivered. *)
  Alcotest.(check int) "one delegation left" 1
    (List.length (Distributed.Fleet.delegations a.fleet));
  (match Distributed.Fleet.imports b.fleet with
  | [ i ] -> Alcotest.(check int) "surviving import is d2" (Hw.Addr.Range.base sub2)
               i.Distributed.Fleet.imp_base
  | l -> Alcotest.failf "expected 1 import, got %d" (List.length l));
  check_clean a;
  check_clean b;
  (* The retry/degraded story is visible through the monitor's own
     observability endpoint (per-link counters included). *)
  let r = Tyche.Monitor.observe a.w.Testkit.monitor in
  let c name = List.assoc_opt name r.Obs.r_counters in
  Alcotest.(check bool) "fleet.retries surfaced" true (c "fleet.retries" <> None);
  Alcotest.(check bool) "per-link retries surfaced" true
    (c "fleet.link.alpha.beta.retries" <> None)

(* Per-link metrics are named by both endpoints: a second endpoint in
   the process connecting to the same peer neither shares alpha's
   counters nor zeroes them. *)
let test_link_metrics_per_endpoint () =
  let net, a, b = mk_pair () in
  Distributed.Network.partition net "alpha" "beta";
  let _ = delegate_page a ~peer:"beta" ~page:13 in
  for _ = 1 to 8 do
    Distributed.Fleet.tick a.fleet
  done;
  let counter name =
    let r = Tyche.Monitor.observe a.w.Testkit.monitor in
    Option.value ~default:(-1) (List.assoc_opt name r.Obs.r_counters)
  in
  let retries = counter "fleet.link.alpha.beta.retries" in
  Alcotest.(check bool) "alpha retried against the partition" true (retries > 0);
  let g = mk_node net "gamma" 0x73L in
  ignore (fok (Distributed.Fleet.connect g.fleet ~peer:"beta" ~key));
  Alcotest.(check int) "gamma's connect leaves alpha's retries intact" retries
    (counter "fleet.link.alpha.beta.retries");
  Alcotest.(check int) "gamma's link counts from zero" 0 (counter "fleet.link.gamma.beta.retries");
  Distributed.Network.heal net "alpha" "beta";
  pump a b;
  check_clean a;
  check_clean b

let test_duplicate_reorder_absorbed () =
  let net, a, b = mk_pair () in
  let _ = delegate_page a ~peer:"beta" ~page:20 in
  let _ = delegate_page a ~peer:"beta" ~page:21 in
  let _ = delegate_page a ~peer:"beta" ~page:22 in
  ignore (Distributed.Network.duplicate net "beta" ~seed:5);
  ignore (Distributed.Network.reorder net "beta" ~seed:9);
  ignore (Distributed.Network.duplicate net "beta" ~seed:13);
  pump a b;
  Alcotest.(check int) "exactly three imports" 3
    (List.length (Distributed.Fleet.imports b.fleet));
  Alcotest.(check int) "applied floor" 3 (Distributed.Fleet.applied b.fleet ~peer:"alpha");
  check_clean a;
  check_clean b

(* --- crash-restart and reconciliation -------------------------------- *)

let test_crash_before_journal_reconciles () =
  let net, a, b = mk_pair () in
  let d0, _ = delegate_page a ~peer:"beta" ~page:2 in
  pump a b;
  (* Crash on the fleet journal append: the share committed locally but
     the delegation record never became durable — and the Delegate
     message was never sent. *)
  (match
     Fault.with_plan (Fault.nth "snapshot.write" 1) (fun () ->
         delegate_page a ~peer:"beta" ~page:3)
   with
  | _ -> Alcotest.fail "expected a crash on the fleet journal append"
  | exception Persist.Store.Crash _ -> ());
  let a = recover_node net "alpha" a in
  ignore (fok (Distributed.Fleet.connect a.fleet ~peer:"beta" ~key));
  (* The journaled delegation survived; the orphaned share did not. *)
  let dels = Distributed.Fleet.delegations a.fleet in
  Alcotest.(check (list int)) "only the journaled delegation" [ d0 ]
    (List.map (fun d -> d.Distributed.Fleet.del_id) dels);
  let tree = Tyche.Monitor.tree a.w.Testkit.monitor in
  let proxy = Option.get (Distributed.Fleet.proxy a.fleet ~peer:"beta") in
  Alcotest.(check int) "proxy holds exactly the journaled cap" 1
    (List.length (Cap.Captree.all_caps_of_domain tree proxy));
  Alcotest.(check bool) "still frozen after recovery" true
    (Cap.Captree.is_frozen tree (List.hd dels).Distributed.Fleet.proxy_cap);
  pump a b;
  check_clean a;
  check_clean b;
  (* And the machinery still works end to end. *)
  let d2, _ = delegate_page a ~peer:"beta" ~page:4 in
  pump a b;
  Alcotest.(check bool) "new delegation imported" true
    (List.exists
       (fun i -> i.Distributed.Fleet.imp_del_id = d2)
       (Distributed.Fleet.imports b.fleet))

let test_crash_mid_revocation_converges () =
  let net, a, b = mk_pair () in
  let _del, _ = delegate_page a ~peer:"beta" ~page:6 in
  pump a b;
  let d = List.hd (Distributed.Fleet.delegations a.fleet) in
  (match
     Fault.with_plan (Fault.nth "snapshot.write" 1) (fun () ->
         Distributed.Fleet.revoke a.fleet ~caller:os ~cap:d.Distributed.Fleet.proxy_cap)
   with
  | _ -> Alcotest.fail "expected a crash journaling the pending revocation"
  | exception Persist.Store.Crash _ -> ());
  let a = recover_node net "alpha" a in
  ignore (fok (Distributed.Fleet.connect a.fleet ~peer:"beta" ~key));
  (* The pending record was lost with the crash, so the delegation is
     simply still alive (and still frozen) — re-issue and converge. *)
  let d = List.hd (Distributed.Fleet.delegations a.fleet) in
  Alcotest.(check bool) "delegation alive" true
    (d.Distributed.Fleet.del_state = Distributed.Fleet.Active);
  fok (Distributed.Fleet.revoke a.fleet ~caller:os ~cap:d.Distributed.Fleet.proxy_cap);
  pump a b;
  Alcotest.(check int) "no imports left" 0 (List.length (Distributed.Fleet.imports b.fleet));
  Alcotest.(check int) "no delegations left" 0
    (List.length (Distributed.Fleet.delegations a.fleet));
  check_clean a;
  check_clean b

let test_importer_crash_redelivery () =
  let net, a, b = mk_pair () in
  let del, _ = delegate_page a ~peer:"beta" ~page:8 in
  (* The import journal append crashes: no durable import, no ack. *)
  (match
     Fault.with_plan (Fault.nth "snapshot.write" 1) (fun () ->
         Distributed.Fleet.poll b.fleet)
   with
  | _ -> Alcotest.fail "expected a crash journaling the import"
  | exception Persist.Store.Crash _ -> ());
  let b = recover_node net "beta" b in
  ignore (fok (Distributed.Fleet.connect b.fleet ~peer:"alpha" ~key));
  Alcotest.(check int) "import lost with the crash" 0
    (List.length (Distributed.Fleet.imports b.fleet));
  (* At-least-once: the exporter retransmits until the ack arrives. *)
  pump a b;
  Alcotest.(check bool) "import redelivered" true
    (List.exists
       (fun i -> i.Distributed.Fleet.imp_del_id = del)
       (Distributed.Fleet.imports b.fleet));
  check_clean a;
  check_clean b

(* --- journal compaction ----------------------------------------------- *)

let fleet_records node =
  List.length (Persist.Wal.read node.store ~blob:"fleet").Persist.Wal.records

(* Many delegate/revoke cycles leave only dead records behind; the
   journal must not grow without bound, and a compacted journal must
   still recover — including the channel counters (send seq, ack and
   applied floors) that used to be implied by the pruned records. *)
let test_journal_compaction_and_recovery () =
  let net, a, b = mk_pair () in
  for i = 1 to 25 do
    let _del, _ = delegate_page a ~peer:"beta" ~page:(1 + (i mod 50)) in
    pump a b;
    let d = List.hd (Distributed.Fleet.delegations a.fleet) in
    fok (Distributed.Fleet.revoke a.fleet ~caller:os ~cap:d.Distributed.Fleet.proxy_cap);
    pump a b
  done;
  (* tick auto-compacts once dead records dominate; finish explicitly so
     the bound is deterministic. *)
  Distributed.Fleet.compact a.fleet;
  Distributed.Fleet.compact b.fleet;
  Alcotest.(check bool) "exporter journal bounded" true (fleet_records a < 20);
  Alcotest.(check bool) "importer journal bounded" true (fleet_records b < 20);
  (* Crash-restart both ends off the compacted journals. *)
  let a = recover_node net "alpha" a in
  let b = recover_node net "beta" b in
  ignore (fok (Distributed.Fleet.connect a.fleet ~peer:"beta" ~key));
  ignore (fok (Distributed.Fleet.connect b.fleet ~peer:"alpha" ~key));
  Alcotest.(check int) "no delegations resurrected" 0
    (List.length (Distributed.Fleet.delegations a.fleet));
  Alcotest.(check int) "no imports resurrected" 0
    (List.length (Distributed.Fleet.imports b.fleet));
  (* The send counter survived compaction: a fresh delegation uses a
     fresh seq (not one the peer would absorb as a duplicate), and the
     peer's applied floor survived too. *)
  let del, _ = delegate_page a ~peer:"beta" ~page:60 in
  pump a b;
  Alcotest.(check bool) "fresh delegation imported after compacted recovery" true
    (List.exists
       (fun i -> i.Distributed.Fleet.imp_del_id = del)
       (Distributed.Fleet.imports b.fleet));
  let d = List.hd (Distributed.Fleet.delegations a.fleet) in
  fok (Distributed.Fleet.revoke a.fleet ~caller:os ~cap:d.Distributed.Fleet.proxy_cap);
  pump a b;
  Alcotest.(check int) "and revokes cleanly" 0
    (List.length (Distributed.Fleet.imports b.fleet));
  check_clean a;
  check_clean b

(* The compaction thresholds are built in: the ticks inside [pump]
   compact the exporter's journal once it holds 128 records and they
   outnumber live state 4:1, with no explicit [compact]. A cycle writes
   about four records (J_delegate, J_pending and two J_acked), so the
   journal grows through 30 cycles and has been rewritten by 45. *)
let test_tick_compacts () =
  let _net, a, b = mk_pair () in
  let cycles lo hi =
    for i = lo to hi do
      let _del, _ = delegate_page a ~peer:"beta" ~page:i in
      pump a b;
      let d = List.hd (Distributed.Fleet.delegations a.fleet) in
      fok (Distributed.Fleet.revoke a.fleet ~caller:os ~cap:d.Distributed.Fleet.proxy_cap);
      pump a b
    done
  in
  cycles 1 30;
  let after_30 = fleet_records a in
  cycles 31 45;
  let after_45 = fleet_records a in
  if after_45 >= after_30 then
    Alcotest.failf "tick never compacted: %d records after 30 cycles, %d after 45" after_30
      after_45;
  check_clean a;
  check_clean b

(* --- journal barriers --------------------------------------------------- *)

(* A [Store.t] is a record of closures, so a wrapper sees every barrier
   and every journal byte an endpoint writes. *)
type counts = {
  mutable wal_syncs : int;
  mutable fleet_syncs : int;
  mutable fleet_bytes : int; (* appended or replaced into the journal *)
  mutable unsynced : int; (* journal records appended since its last barrier *)
}

let counting () =
  let inner = Persist.Store.mem () in
  let c = { wal_syncs = 0; fleet_syncs = 0; fleet_bytes = 0; unsynced = 0 } in
  let store =
    { inner with
      Persist.Store.append =
        (fun blob data ->
          if blob = "fleet" then begin
            c.fleet_bytes <- c.fleet_bytes + String.length data;
            c.unsynced <- c.unsynced + 1
          end;
          inner.Persist.Store.append blob data);
      replace =
        (fun blob data ->
          if blob = "fleet" then begin
            c.fleet_bytes <- c.fleet_bytes + String.length data;
            c.unsynced <- 0
          end;
          inner.Persist.Store.replace blob data);
      fsync =
        (fun blob ->
          if blob = Persist.Store.wal_blob then c.wal_syncs <- c.wal_syncs + 1
          else if blob = "fleet" then begin
            c.fleet_syncs <- c.fleet_syncs + 1;
            c.unsynced <- 0
          end;
          inner.Persist.Store.fsync blob) }
  in
  (store, c)

let zero_barriers c =
  c.wal_syncs <- 0;
  c.fleet_syncs <- 0

let barriers what c ~wal ~fleet =
  Alcotest.(check (pair int int)) (what ^ " (WAL, fleet barriers)") (wal, fleet)
    (c.wal_syncs, c.fleet_syncs);
  zero_barriers c

let del_view fleet =
  List.map
    (fun d ->
      ( d.Distributed.Fleet.del_id,
        d.Distributed.Fleet.del_base,
        d.Distributed.Fleet.del_state = Distributed.Fleet.Active ))
    (Distributed.Fleet.delegations fleet)

let import_ids fleet =
  List.map (fun i -> i.Distributed.Fleet.imp_del_id) (Distributed.Fleet.imports fleet)

let check_dels what expected fleet =
  Alcotest.(check (list (triple int int bool))) what expected (del_view fleet)

(* Journal-then-ack pays one barrier where a message or an ack depends
   on it and nowhere else: the exporter's share and [J_delegate], the
   importer's [J_import]; then [J_pending], [J_unimport] and the local
   revoke. The record of the revoke's ack ([J_acked]) waits for the
   next barrier, and the revocation it completes journals nothing. *)
let test_barriers_per_delegate_and_revoke () =
  let store_a, ca = counting () and store_b, cb = counting () in
  let _net, a, b = mk_pair ~store_a ~store_b () in
  zero_barriers ca;
  zero_barriers cb;
  let _ = delegate_page a ~peer:"beta" ~page:3 in
  pump a b;
  barriers "delegate, exporter" ca ~wal:1 ~fleet:1;
  barriers "delegate, importer" cb ~wal:0 ~fleet:1;
  let d = List.hd (Distributed.Fleet.delegations a.fleet) in
  fok (Distributed.Fleet.revoke a.fleet ~caller:os ~cap:d.Distributed.Fleet.proxy_cap);
  pump a b;
  barriers "revoke, exporter" ca ~wal:1 ~fleet:1;
  barriers "revoke, importer" cb ~wal:0 ~fleet:1;
  Alcotest.(check int) "only J_acked waits for the next barrier" 1 ca.unsynced;
  check_clean a;
  check_clean b

(* Power fails right after a revoke converged, taking the unsynced
   records of its ack with it. Recovery must still know the revocation
   finished: its frozen cap is gone from the recovered tree. *)
let test_crash_after_converged_revoke () =
  let store_a, ca = counting () in
  let net, a, b = mk_pair ~store_a () in
  let _ = delegate_page a ~peer:"beta" ~page:4 in
  let _ = delegate_page a ~peer:"beta" ~page:5 in
  pump a b;
  let victim = List.nth (Distributed.Fleet.delegations a.fleet) 1 in
  fok (Distributed.Fleet.revoke a.fleet ~caller:os ~cap:victim.Distributed.Fleet.proxy_cap);
  pump a b;
  let dels = del_view a.fleet and imported = import_ids b.fleet in
  let applied = Distributed.Fleet.applied b.fleet ~peer:"alpha" in
  Alcotest.(check int) "the ack's record is unsynced at the crash" 1 ca.unsynced;
  Persist.Store.power_fail a.store;
  let a = recover_node net "alpha" a in
  check_dels "delegations before any pump" dels a.fleet;
  Alcotest.(check (list int)) "no pending revocation" [] (Distributed.Fleet.pending_revokes a.fleet);
  ignore (fok (Distributed.Fleet.connect a.fleet ~peer:"beta" ~key));
  pump a b;
  check_dels "delegations after pumping" dels a.fleet;
  Alcotest.(check (list int)) "the peer re-imports nothing" imported (import_ids b.fleet);
  Alcotest.(check int) "the peer applies nothing new" applied
    (Distributed.Fleet.applied b.fleet ~peer:"alpha");
  check_clean a;
  check_clean b

(* Compaction installs its snapshot with one atomic replace: a crash at
   the rename barrier leaves the old journal, and a compaction that
   completes writes the snapshot once and nothing else. *)
let test_compaction_writes_once () =
  let store_a, ca = counting () in
  let net, a, b = mk_pair ~store_a () in
  List.iter (fun page -> ignore (delegate_page a ~peer:"beta" ~page)) [ 6; 7; 8 ];
  pump a b;
  let victim = List.nth (Distributed.Fleet.delegations a.fleet) 2 in
  fok (Distributed.Fleet.revoke a.fleet ~caller:os ~cap:victim.Distributed.Fleet.proxy_cap);
  pump a b;
  let dels = del_view a.fleet and imported = import_ids b.fleet in
  let old = Persist.Store.read a.store "fleet" in
  (match
     Fault.with_plan (Fault.nth "store.dir_fsync" 1) (fun () -> Distributed.Fleet.compact a.fleet)
   with
  | () -> Alcotest.fail "expected a crash at the rename barrier"
  | exception Persist.Store.Crash _ -> ());
  Alcotest.(check bool) "the old journal survives the crash" true
    (Persist.Store.read a.store "fleet" = old);
  let a = recover_node net "alpha" a in
  check_dels "recovery rebuilds the delegations" dels a.fleet;
  ignore (fok (Distributed.Fleet.connect a.fleet ~peer:"beta" ~key));
  pump a b;
  check_dels "and keeps them after pumping" dels a.fleet;
  Alcotest.(check (list int)) "and the peer's imports" imported (import_ids b.fleet);
  let bytes = ca.fleet_bytes in
  Distributed.Fleet.compact a.fleet;
  let blob = Persist.Store.read a.store "fleet" in
  Alcotest.(check int) "one copy of the snapshot written" (String.length blob)
    (ca.fleet_bytes - bytes);
  (* Peer, channel counters, one record per live delegation. *)
  let snapshot = 2 + List.length dels in
  Alcotest.(check int) "the blob is exactly the snapshot" snapshot (fleet_records a);
  let _ = delegate_page a ~peer:"beta" ~page:9 in
  Alcotest.(check int) "the next barrier flushes only its own record" (snapshot + 1)
    (fleet_records a);
  pump a b;
  check_clean a;
  check_clean b

(* A crash inside the repair of a torn journal tail must not cost a
   valid record: the repair is one atomic truncation. *)
let test_torn_tail_repair_crash () =
  let net, a, b = mk_pair () in
  let d0, _ = delegate_page a ~peer:"beta" ~page:2 in
  pump a b;
  let torn = Persist.Wal.frame ~seq:1_000 "torn" in
  Persist.Store.append a.store "fleet" (String.sub torn 0 (String.length torn - 3));
  Persist.Store.fsync a.store "fleet";
  let valid = (Persist.Wal.read a.store ~blob:"fleet").Persist.Wal.records in
  let image =
    List.map
      (fun blob -> (blob, Persist.Store.read a.store blob))
      [ Persist.Store.wal_blob; Persist.Store.snap_blob; Persist.Store.seg_blob; "fleet" ]
  in
  List.iter
    (fun point ->
      let store = Persist.Store.mem ~preload:image () in
      let m, _, _ = recover_monitor store in
      (match
         Fault.with_plan (Fault.nth point 1) (fun () ->
             Distributed.Fleet.create ~store ~monitor:m ~name:"alpha" ~net ())
       with
      | _ -> ()
      | exception Persist.Store.Crash _ -> ());
      let m, _, _ = recover_monitor store in
      let fleet = Distributed.Fleet.create ~store ~monitor:m ~name:"alpha" ~net () in
      let survived = (Persist.Wal.read store ~blob:"fleet").Persist.Wal.records in
      Alcotest.(check bool)
        (point ^ " in the repair: every valid record survives")
        true
        (List.filteri (fun i _ -> i < List.length valid) survived = valid);
      Alcotest.(check (list int)) (point ^ ": the delegation is recovered") [ d0 ]
        (List.map (fun d -> d.Distributed.Fleet.del_id) (Distributed.Fleet.delegations fleet)))
    [ "store.dir_fsync"; "snapshot.write" ]

(* --- fleet attestation ------------------------------------------------ *)

let test_fleet_attestation () =
  let _net, a, b = mk_pair () in
  let ma = a.w.Testkit.monitor and mb = b.w.Testkit.monitor in
  let before = fok (Distributed.Fleet.member_root ma ~nonce:"n0") in
  let _ = delegate_page a ~peer:"beta" ~page:14 in
  let after = fok (Distributed.Fleet.member_root ma ~nonce:"n0") in
  Alcotest.(check bool) "delegation changes the member root" false
    (Crypto.Sha256.to_raw before = Crypto.Sha256.to_raw after);
  let att = fok (Distributed.Fleet.attest ~nonce:"n1" [ ("alpha", ma); ("beta", mb) ]) in
  Alcotest.(check int) "two members" 2 (List.length att.Distributed.Fleet.fa_members);
  let ra = fok (Distributed.Fleet.member_root ma ~nonce:"n1") in
  let rb = fok (Distributed.Fleet.member_root mb ~nonce:"n1") in
  Alcotest.(check bool) "alpha verifies" true
    (Distributed.Fleet.verify_member att ~name:"alpha" ~member_root:ra);
  Alcotest.(check bool) "beta verifies" true
    (Distributed.Fleet.verify_member att ~name:"beta" ~member_root:rb);
  Alcotest.(check bool) "wrong member root rejected" false
    (Distributed.Fleet.verify_member att ~name:"alpha" ~member_root:rb);
  Alcotest.(check bool) "unknown member rejected" false
    (Distributed.Fleet.verify_member att ~name:"gamma" ~member_root:ra);
  (* A member root is its batch's root: every report of that batch
     proves its inclusion under it. *)
  List.iter
    (fun (name, m, root) ->
      let ids = List.map Tyche.Domain.id (Tyche.Monitor.domains m) in
      let reports =
        Testkit.get_ok (Tyche.Monitor.attest_batch m ~caller:os ~domains:ids ~nonce:"n1")
      in
      List.iter
        (fun (r : Tyche.Attestation.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s domain %d included in member root" name r.domain)
            true
            (Crypto.Merkle.verify ~root
               ~leaf:(Crypto.Sha256.string (Tyche.Attestation.payload r))
               r.evidence.proof))
        reports)
    [ ("alpha", ma, ra); ("beta", mb, rb) ]

(* --- wire properties (qcheck) ----------------------------------------- *)

let gen_msg =
  let open QCheck.Gen in
  oneof
    [ (fun st ->
        Distributed.Fleet.Wire.Delegate
          { del_id = int_range 0 1_000_000 st;
            base = int_range 0 0xFFFF_F000 st;
            len = int_range 1 0x10_0000 st;
            rights = int_range 0 31 st });
      (fun st -> Distributed.Fleet.Wire.Revoke { del_id = int_range 0 1_000_000 st });
      (fun st -> Distributed.Fleet.Wire.Ack { upto = int_range 0 1_000_000 st });
      (fun st ->
        Distributed.Fleet.Wire.Data
          { chan = string_size ~gen:printable (int_range 1 8) st;
            payload = string_size (int_range 0 64) st }) ]

let gen_envelope =
  QCheck.Gen.(
    triple (string_size ~gen:printable (int_range 1 12)) (int_range 0 1_000_000) gen_msg)

let print_envelope (origin, seq, msg) =
  Printf.sprintf "origin=%S seq=%d %s" origin seq
    (match msg with
    | Distributed.Fleet.Wire.Delegate { del_id; base; len; rights } ->
      Printf.sprintf "Delegate{id=%d;base=%d;len=%d;rights=%d}" del_id base len rights
    | Distributed.Fleet.Wire.Revoke { del_id } -> Printf.sprintf "Revoke{id=%d}" del_id
    | Distributed.Fleet.Wire.Ack { upto } -> Printf.sprintf "Ack{upto=%d}" upto
    | Distributed.Fleet.Wire.Data { chan; payload } ->
      Printf.sprintf "Data{chan=%S;payload=%S}" chan payload)

let arb_envelope = QCheck.make ~print:print_envelope gen_envelope

let prop_roundtrip =
  QCheck.Test.make ~name:"fleet wire: encode/decode round-trips" ~count:500 arb_envelope
    (fun (origin, seq, msg) ->
      let body = Distributed.Fleet.Wire.encode_body ~origin ~seq msg in
      match Distributed.Fleet.Wire.decode_body body with
      | Ok (o, s, m) -> o = origin && s = seq && m = msg
      | Error _ -> false)

let prop_tamper =
  QCheck.Test.make ~name:"fleet wire: every single-byte flip is rejected" ~count:60
    arb_envelope (fun (origin, seq, msg) ->
      let key = "tamper-key" in
      let body = Distributed.Fleet.Wire.encode_body ~origin ~seq msg in
      let raw = Distributed.Fleet.Wire.seal ~key body in
      let ok = ref true in
      for i = 0 to String.length raw - 1 do
        let forged =
          String.mapi
            (fun j c -> if j = i then Char.chr (Char.code c lxor 0x01) else c)
            raw
        in
        let accepted =
          match Distributed.Fleet.Wire.split_datagram forged with
          | Error _ -> false
          | Ok (fbody, fmac) -> (
            match Distributed.Fleet.Wire.decode_body fbody with
            | Error _ -> false
            | Ok _ -> Distributed.Fleet.Wire.verify ~key ~body:fbody ~mac:fmac)
        in
        if accepted then ok := false
      done;
      !ok)

let () =
  Alcotest.run "fleet"
    [ ( "delegation",
        [ Alcotest.test_case "delegate enters holders and refcounts" `Quick
            test_delegate_visible;
          Alcotest.test_case "typed errors: unknown peer, non-memory" `Quick
            test_delegate_errors;
          Alcotest.test_case "frozen caps refuse local revocation" `Quick
            test_frozen_blocks_local_revoke ] );
      ( "revocation",
        [ Alcotest.test_case "cross-machine revoke round-trips" `Quick
            test_revoke_roundtrip;
          Alcotest.test_case "unauthorized revoke refused up front" `Quick
            test_unauthorized_revoke_refused_up_front;
          Alcotest.test_case "revoke without delegations is local" `Quick
            test_revoke_without_delegation_is_local ] );
      ( "faults",
        [ Alcotest.test_case "partition: degraded mode, convergence on heal" `Quick
            test_partition_degraded_and_heal;
          Alcotest.test_case "link metrics are per endpoint" `Quick
            test_link_metrics_per_endpoint;
          Alcotest.test_case "duplicates and reorder are absorbed" `Quick
            test_duplicate_reorder_absorbed;
          Alcotest.test_case "crash before journal: reconciliation" `Quick
            test_crash_before_journal_reconciles;
          Alcotest.test_case "crash mid-revocation: converges after restart" `Quick
            test_crash_mid_revocation_converges;
          Alcotest.test_case "importer crash: at-least-once redelivery" `Quick
            test_importer_crash_redelivery;
          Alcotest.test_case "journal compaction bounds growth, survives recovery" `Quick
            test_journal_compaction_and_recovery;
          Alcotest.test_case "tick compacts at the built-in thresholds" `Quick
            test_tick_compacts;
          Alcotest.test_case "crash inside the torn-tail repair keeps every record" `Quick
            test_torn_tail_repair_crash ] );
      ( "barriers",
        [ Alcotest.test_case "one barrier per record a message or ack needs" `Quick
            test_barriers_per_delegate_and_revoke;
          Alcotest.test_case "crash after a converged revoke" `Quick
            test_crash_after_converged_revoke;
          Alcotest.test_case "compaction writes the snapshot once, atomically" `Quick
            test_compaction_writes_once ] );
      ( "attestation",
        [ Alcotest.test_case "fleet root binds member attestations" `Quick
            test_fleet_attestation ] );
      ( "wire",
        [ QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_tamper ] ) ]
