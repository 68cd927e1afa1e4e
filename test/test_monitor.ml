(* Tests for the isolation monitor: authorization, sealing, mediated
   transitions, hardware-checked access, attestation and invariants. *)

open Testkit

let range ~base ~len = Hw.Addr.Range.make ~base ~len
let page = Hw.Addr.page_size

(* Standard fixture: x86 world, one enclave with 2 private pages at
   0x10000 holding "SECRET01", sharing core 0. *)
let with_enclave () =
  let w = boot_x86 () in
  let m = w.monitor in
  let enclave =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"enc" ~kind:Tyche.Domain.Enclave)
  in
  let sub = range ~base:0x10000 ~len:(2 * page) in
  let piece = get_ok (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w) ~subrange:sub) in
  get_ok (Tyche.Monitor.store_string m ~core:0 0x10000 "SECRET01");
  let _ =
    get_ok
      (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:enclave
         ~rights:Cap.Rights.full ~cleanup:Cap.Revocation.Zero_and_flush)
  in
  let _ =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:(os_core_cap w 0) ~to_:enclave
         ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ())
  in
  get_ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:enclave 0x10000);
  get_ok (Tyche.Monitor.mark_measured m ~caller:os ~domain:enclave sub);
  get_ok (Tyche.Monitor.seal m ~caller:os ~domain:enclave);
  (w, enclave, sub)

let test_boot_state () =
  let w = boot_x86 ~cores:3 () in
  let m = w.monitor in
  Alcotest.(check int) "one domain" 1 (List.length (Tyche.Monitor.domains m));
  for core = 0 to 2 do
    Alcotest.(check int) "os on every core" os (Tyche.Monitor.current_domain m ~core)
  done;
  (* Domain 0 holds memory, cores; monitor memory is not reachable. *)
  let mon_base = Hw.Addr.Range.base w.boot_report.Rot.Boot.monitor_range in
  expect_error (Tyche.Monitor.load m ~core:0 mon_base);
  check_no_violations m

let test_os_memory_access () =
  let w = boot_x86 () in
  get_ok (Tyche.Monitor.store w.monitor ~core:0 0x4000 77);
  Alcotest.(check int) "read back" 77 (get_ok (Tyche.Monitor.load w.monitor ~core:0 0x4000))

let test_create_domain_unknown_caller () =
  let w = boot_x86 () in
  expect_error (Tyche.Monitor.create_domain w.monitor ~caller:42 ~name:"x" ~kind:Tyche.Domain.Sandbox)

let test_seal_requires_entry_point () =
  let w = boot_x86 () in
  let d =
    get_ok (Tyche.Monitor.create_domain w.monitor ~caller:os ~name:"d" ~kind:Tyche.Domain.Sandbox)
  in
  expect_error (Tyche.Monitor.seal w.monitor ~caller:os ~domain:d);
  get_ok (Tyche.Monitor.set_entry_point w.monitor ~caller:os ~domain:d 0x1000);
  get_ok (Tyche.Monitor.seal w.monitor ~caller:os ~domain:d);
  (* Double sealing and post-seal config fail. *)
  expect_error (Tyche.Monitor.seal w.monitor ~caller:os ~domain:d);
  expect_error (Tyche.Monitor.set_entry_point w.monitor ~caller:os ~domain:d 0x2000);
  expect_error (Tyche.Monitor.set_flush_policy w.monitor ~caller:os ~domain:d true)

let test_configure_requires_creator () =
  let w = boot_x86 () in
  let m = w.monitor in
  let d1 = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"d1" ~kind:Tyche.Domain.Sandbox) in
  let d2 = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"d2" ~kind:Tyche.Domain.Sandbox) in
  (* d1 cannot configure d2 (it is neither d2 nor its creator). *)
  expect_error (Tyche.Monitor.set_entry_point m ~caller:d1 ~domain:d2 0x1000);
  (* but a domain can configure itself. *)
  get_ok (Tyche.Monitor.set_entry_point m ~caller:d2 ~domain:d2 0x1000)

let test_share_authorization () =
  let w = boot_x86 () in
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"d" ~kind:Tyche.Domain.Sandbox) in
  let cap = os_memory_cap w in
  (* A domain that does not own the capability cannot share it. *)
  (match
     Tyche.Monitor.share m ~caller:d ~cap ~to_:d ~rights:Cap.Rights.rw
       ~cleanup:Cap.Revocation.Keep ()
   with
  | Error (Tyche.Monitor.Denied _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Tyche.Monitor.error_to_string e)
  | Ok _ -> Alcotest.fail "expected denial");
  (* Sharing to an unknown domain fails. *)
  expect_error
    (Tyche.Monitor.share m ~caller:os ~cap ~to_:99 ~rights:Cap.Rights.rw
       ~cleanup:Cap.Revocation.Keep ())

let test_sealed_domain_cannot_be_extended () =
  let w, enclave, _ = with_enclave () in
  let m = w.monitor in
  let cap = os_memory_cap w in
  match
    Tyche.Monitor.share m ~caller:os ~cap ~to_:enclave ~rights:Cap.Rights.rw
      ~cleanup:Cap.Revocation.Keep ~subrange:(range ~base:0x40000 ~len:page) ()
  with
  | Error (Tyche.Monitor.Denied msg) ->
    Alcotest.(check bool) "mentions sealing" true (contains_substring msg "sealed")
  | Error e -> Alcotest.failf "wrong error: %s" (Tyche.Monitor.error_to_string e)
  | Ok _ -> Alcotest.fail "sealed domain was extended"

let test_enforcement_os_blocked () =
  let w, _, sub = with_enclave () in
  expect_error (Tyche.Monitor.load w.monitor ~core:0 (Hw.Addr.Range.base sub));
  expect_error (Tyche.Monitor.store w.monitor ~core:0 (Hw.Addr.Range.base sub) 1);
  check_no_violations w.monitor

let test_call_and_ret () =
  let w, enclave, sub = with_enclave () in
  let m = w.monitor in
  Alcotest.(check int) "no transitions yet" 0 (Tyche.Monitor.transition_count m);
  let p1 = get_ok (Tyche.Monitor.call m ~core:0 ~target:enclave) in
  Alcotest.(check bool) "first call traps" true (p1 = Tyche.Backend_intf.Trap_roundtrip);
  Alcotest.(check int) "current is enclave" enclave (Tyche.Monitor.current_domain m ~core:0);
  Alcotest.(check int) "depth 1" 1 (Tyche.Monitor.call_depth m ~core:0);
  (* Enclave reads its own secret. *)
  Alcotest.(check string) "enclave reads secret" "SECRET01"
    (get_ok (Tyche.Monitor.load_string m ~core:0 (range ~base:(Hw.Addr.Range.base sub) ~len:8)));
  let _ = get_ok (Tyche.Monitor.ret m ~core:0) in
  Alcotest.(check int) "back to os" os (Tyche.Monitor.current_domain m ~core:0);
  Alcotest.(check int) "two transitions" 2 (Tyche.Monitor.transition_count m)

let test_call_requires_core_capability () =
  let w, enclave, _ = with_enclave () in
  (* Enclave only holds core 0; calling on core 1 must fail. *)
  expect_error (Tyche.Monitor.call w.monitor ~core:1 ~target:enclave)

let test_call_rejects_unsealed () =
  let w = boot_x86 () in
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"d" ~kind:Tyche.Domain.Sandbox) in
  expect_error (Tyche.Monitor.call m ~core:0 ~target:d)

let test_ret_empty_stack () =
  let w = boot_x86 () in
  expect_error (Tyche.Monitor.ret w.monitor ~core:0)

let test_call_self_rejected () =
  let w = boot_x86 () in
  expect_error (Tyche.Monitor.call w.monitor ~core:0 ~target:os)

let test_nested_calls () =
  let w, enclave, _ = with_enclave () in
  let m = w.monitor in
  (* Build a second enclave from inside... the OS creates it, then we
     call enclave -> ret -> call enclave2 -> enclave2 calls enclave. *)
  let e2 = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"e2" ~kind:Tyche.Domain.Enclave) in
  let sub2 = range ~base:0x20000 ~len:page in
  let piece = get_ok (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w) ~subrange:sub2) in
  let _ =
    get_ok
      (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:e2 ~rights:Cap.Rights.full
         ~cleanup:Cap.Revocation.Zero)
  in
  let _ =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:(os_core_cap w 0) ~to_:e2
         ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ())
  in
  get_ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:e2 0x20000);
  get_ok (Tyche.Monitor.seal m ~caller:os ~domain:e2);
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:e2) in
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:enclave) in
  Alcotest.(check int) "depth 2" 2 (Tyche.Monitor.call_depth m ~core:0);
  let _ = get_ok (Tyche.Monitor.ret m ~core:0) in
  Alcotest.(check int) "back in e2" e2 (Tyche.Monitor.current_domain m ~core:0);
  let _ = get_ok (Tyche.Monitor.ret m ~core:0) in
  Alcotest.(check int) "back in os" os (Tyche.Monitor.current_domain m ~core:0)

let test_vmfunc_fast_path_second_call () =
  let w, enclave, _ = with_enclave () in
  let m = w.monitor in
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:enclave) in
  let _ = get_ok (Tyche.Monitor.ret m ~core:0) in
  let p = get_ok (Tyche.Monitor.call m ~core:0 ~target:enclave) in
  Alcotest.(check bool) "second call is fast" true (p = Tyche.Backend_intf.Fast_switch)

let test_flush_policy_forces_trap () =
  let w = boot_x86 () in
  let m = w.monitor in
  let e = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"f" ~kind:Tyche.Domain.Enclave) in
  let sub = range ~base:0x30000 ~len:page in
  let piece = get_ok (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w) ~subrange:sub) in
  let _ =
    get_ok (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:e ~rights:Cap.Rights.full
              ~cleanup:Cap.Revocation.Zero)
  in
  let _ =
    get_ok (Tyche.Monitor.share m ~caller:os ~cap:(os_core_cap w 0) ~to_:e
              ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ())
  in
  get_ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:e 0x30000);
  get_ok (Tyche.Monitor.set_flush_policy m ~caller:os ~domain:e true);
  get_ok (Tyche.Monitor.seal m ~caller:os ~domain:e);
  (* Flush-on-transition domains never take the exit-less path. *)
  for _ = 1 to 3 do
    let p = get_ok (Tyche.Monitor.call m ~core:0 ~target:e) in
    Alcotest.(check bool) "always traps" true (p = Tyche.Backend_intf.Trap_roundtrip);
    let _ = get_ok (Tyche.Monitor.ret m ~core:0) in
    ()
  done;
  (* And the cache holds no lines tagged by the enclave afterwards. *)
  Alcotest.(check int) "no enclave-tagged cache lines" 0
    (Hw.Cache.lines_tagged w.machine.Hw.Machine.cache ~tag:e)

let test_revocation_zeroes_and_restores () =
  let w, enclave, sub = with_enclave () in
  let m = w.monitor in
  let enclave_cap = List.hd (Tyche.Monitor.caps_of m enclave) in
  get_ok (Tyche.Monitor.revoke m ~caller:os ~cap:enclave_cap);
  (* OS regained access, content zeroed by the revocation policy. *)
  Alcotest.(check int) "zeroed" 0 (get_ok (Tyche.Monitor.load m ~core:0 (Hw.Addr.Range.base sub)));
  Alcotest.(check (list int)) "os holds it again" [ os ]
    (Cap.Captree.holders (Tyche.Monitor.tree m) (Cap.Resource.Memory sub));
  check_no_violations m

let test_revoke_authorization () =
  let w, enclave, _ = with_enclave () in
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"d" ~kind:Tyche.Domain.Sandbox) in
  let enclave_cap = List.hd (Tyche.Monitor.caps_of m enclave) in
  (* A random domain cannot revoke the enclave's capability. *)
  (match Tyche.Monitor.revoke m ~caller:d ~cap:enclave_cap with
  | Error (Tyche.Monitor.Denied _) -> ()
  | _ -> Alcotest.fail "expected denial")

(* Overlapping active capabilities over one region (self-grant plus
   self-shares, then splits of the granted alias) — revoking any one
   piece must not take hardware coverage the surviving aliases still
   grant. Found by the persistence chaos harness: untrimmed Detach
   effects unmapped EPT/PMP ranges that live capabilities still held. *)
let test_revoke_aliased_caps () =
  let w = boot_x86 () in
  let m = w.monitor in
  let mem = os_memory_cap w in
  let range =
    match Cap.Captree.resource (Tyche.Monitor.tree m) mem with
    | Some (Cap.Resource.Memory r) -> r
    | _ -> Alcotest.fail "os memory cap is not memory"
  in
  let base = Hw.Addr.Range.base range and len = Hw.Addr.Range.len range in
  let g =
    get_ok
      (Tyche.Monitor.grant m ~caller:os ~cap:mem ~to_:os ~rights:Cap.Rights.full
         ~cleanup:Cap.Revocation.Flush_cache)
  in
  let _a1 =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:g ~to_:os ~rights:Cap.Rights.read_only
         ~cleanup:Cap.Revocation.Flush_cache ())
  in
  let _a2 =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:g ~to_:os ~rights:Cap.Rights.read_only
         ~cleanup:Cap.Revocation.Keep ())
  in
  let page = Hw.Addr.page_size in
  let half = base + (len / 2 / page * page) in
  let quarter = base + (len / 4 / page * page) in
  let l, r = get_ok (Tyche.Monitor.split m ~caller:os ~cap:g ~at:half) in
  let l2, r2 = get_ok (Tyche.Monitor.split m ~caller:os ~cap:l ~at:quarter) in
  let hw_clean label =
    match Tyche.Invariants.check_hardware_matches_tree m with
    | [] -> ()
    | v :: _ ->
      Alcotest.failf "%s: %s" label (Format.asprintf "%a" Tyche.Invariants.pp_violation v)
  in
  hw_clean "before revoke";
  List.iter
    (fun (label, cap) ->
      get_ok (Tyche.Monitor.revoke m ~caller:os ~cap);
      hw_clean label)
    [ ("after revoking left split", l2);
      ("after revoking right split", r2);
      ("after revoking remainder", r) ];
  (* The self-shares still cover the whole region end to end. *)
  let backend = Tyche.Monitor.backend m in
  let d0 = Option.get (Tyche.Monitor.find_domain m os) in
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "page 0x%x still reachable" a)
        true
        (backend.Tyche.Backend_intf.domain_reaches d0
           (Hw.Addr.Range.make ~base:a ~len:page)))
    [ base; quarter; half; base + len - page ]

(* [revoke.cascade_size] counts the nodes a revoke removed: a 13-node
   cascade adds 13; a leaf revoke, an unauthorized one and one refused
   after authorization (a frozen victim) add nothing. *)
let test_revoke_cascade_size () =
  let w = boot_x86 () in
  let m = w.monitor in
  let tree = Tyche.Monitor.tree m in
  let mem = os_memory_cap w in
  let base =
    match Cap.Captree.resource tree mem with
    | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.base r
    | _ -> Alcotest.fail "os memory cap is not memory"
  in
  let domain name =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name ~kind:Tyche.Domain.Sandbox)
  in
  let a = domain "a" and b = domain "b" in
  let share ?(rights = Cap.Rights.read_only) ~caller ~cap ~to_ ~base ~len () =
    get_ok
      (Tyche.Monitor.share m ~caller ~cap ~to_ ~rights ~cleanup:Cap.Revocation.Keep
         ~subrange:(range ~base ~len) ())
  in
  let sum () = Obs.Metrics.histogram_sum "revoke.cascade_size" in
  let s0 = sum () in
  let leaf = share ~caller:os ~cap:mem ~to_:a ~base ~len:page () in
  get_ok (Tyche.Monitor.revoke m ~caller:os ~cap:leaf);
  Alcotest.(check int) "leaf revoke" s0 (sum ());
  let parent = share ~rights:Cap.Rights.rw ~caller:os ~cap:mem ~to_:a ~base ~len:(12 * page) () in
  let children =
    List.init 12 (fun k ->
        share ~caller:a ~cap:parent ~to_:b ~base:(base + (k * page)) ~len:page ())
  in
  expect_error (Tyche.Monitor.revoke m ~caller:b ~cap:parent);
  let frozen = List.nth children 5 in
  (match Cap.Captree.freeze tree frozen with Ok () -> () | Error _ -> Alcotest.fail "freeze");
  expect_error (Tyche.Monitor.revoke m ~caller:os ~cap:parent);
  Cap.Captree.thaw tree frozen;
  Alcotest.(check int) "refused revokes" s0 (sum ());
  get_ok (Tyche.Monitor.revoke m ~caller:os ~cap:parent);
  Alcotest.(check int) "13-node cascade" (s0 + 13) (sum ())

let test_destroy_domain () =
  let w, enclave, sub = with_enclave () in
  let m = w.monitor in
  (* Cannot destroy while on a core? It isn't running, so destroy works;
     domain 0 and non-creators are rejected. *)
  (match Tyche.Monitor.destroy_domain m ~caller:os ~domain:os with
  | Error (Tyche.Monitor.Denied _) -> ()
  | _ -> Alcotest.fail "domain 0 must be indestructible");
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"d" ~kind:Tyche.Domain.Sandbox) in
  (match Tyche.Monitor.destroy_domain m ~caller:d ~domain:enclave with
  | Error (Tyche.Monitor.Denied _) -> ()
  | _ -> Alcotest.fail "non-creator destroyed a domain");
  get_ok (Tyche.Monitor.destroy_domain m ~caller:os ~domain:enclave);
  Alcotest.(check bool) "domain gone" true (Tyche.Monitor.find_domain m enclave = None);
  (* Its memory returned to the OS, zeroed. *)
  Alcotest.(check int) "zeroed" 0 (get_ok (Tyche.Monitor.load m ~core:0 (Hw.Addr.Range.base sub)));
  check_no_violations m

let test_destroy_running_domain_rejected () =
  let w, enclave, _ = with_enclave () in
  let m = w.monitor in
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:enclave) in
  (match Tyche.Monitor.destroy_domain m ~caller:os ~domain:enclave with
  | Error (Tyche.Monitor.Denied _) -> ()
  | _ -> Alcotest.fail "destroyed a running domain");
  let _ = get_ok (Tyche.Monitor.ret m ~core:0) in
  get_ok (Tyche.Monitor.destroy_domain m ~caller:os ~domain:enclave)

let test_attestation_contents () =
  let w, enclave, sub = with_enclave () in
  let m = w.monitor in
  let att = get_ok (Tyche.Monitor.attest m ~caller:os ~domain:enclave ~nonce:"n") in
  Alcotest.(check bool) "verifies" true
    (Tyche.Attestation.verify ~monitor_root:(Tyche.Monitor.attestation_root m) att);
  Alcotest.(check bool) "sealed" true att.Tyche.Attestation.sealed;
  Alcotest.(check int) "one region" 1 (List.length att.Tyche.Attestation.regions);
  let region = List.hd att.Tyche.Attestation.regions in
  Alcotest.(check bool) "range matches" true (Hw.Addr.Range.equal region.Tyche.Attestation.range sub);
  Alcotest.(check int) "exclusive" 1 region.Tyche.Attestation.refcount;
  Alcotest.(check bool) "measured" true region.Tyche.Attestation.measured;
  Alcotest.(check (list (pair int int))) "core 0 shared" [ (0, 2) ] att.Tyche.Attestation.cores

let test_attestation_tamper_detected () =
  let w, enclave, _ = with_enclave () in
  let m = w.monitor in
  let att = get_ok (Tyche.Monitor.attest m ~caller:os ~domain:enclave ~nonce:"n") in
  let root = Tyche.Monitor.attestation_root m in
  (* Tamper with the refcount: signature must break. *)
  let tampered =
    { att with
      Tyche.Attestation.regions =
        List.map (fun r -> { r with Tyche.Attestation.refcount = 1 })
          att.Tyche.Attestation.regions;
      cores = List.map (fun (c, _) -> (c, 1)) att.Tyche.Attestation.cores }
  in
  Alcotest.(check bool) "tamper detected" false
    (Tyche.Attestation.verify ~monitor_root:root tampered);
  (* Unknown-signer attestation rejected. *)
  let other = boot_x86 ~seed:0x99L () in
  Alcotest.(check bool) "wrong monitor root" false
    (Tyche.Attestation.verify ~monitor_root:(Tyche.Monitor.attestation_root other.monitor) att)

let test_attestation_measurement_matches_content () =
  let w, enclave, sub = with_enclave () in
  let m = w.monitor in
  let att = get_ok (Tyche.Monitor.attest m ~caller:os ~domain:enclave ~nonce:"x") in
  (* Recompute what the measurement should be from the known content. *)
  let content = "SECRET01" ^ String.make ((2 * page) - 8) '\x00' in
  let expected =
    Tyche.Measure.domain_digest ~kind:Tyche.Domain.Enclave
      ~entry_point:(Hw.Addr.Range.base sub) ~flush_on_transition:false
      ~ranges:[ (sub, Crypto.Sha256.string content) ]
  in
  match att.Tyche.Attestation.measurement with
  | Some digest ->
    Alcotest.(check bool) "measurement reproducible" true (Crypto.Sha256.equal digest expected)
  | None -> Alcotest.fail "no measurement"

let test_attestation_memoized () =
  let w, enclave, _ = with_enclave () in
  let m = w.monitor in
  let body (a : Tyche.Attestation.t) =
    (a.Tyche.Attestation.regions, a.Tyche.Attestation.cores, a.Tyche.Attestation.devices)
  in
  (* Two attestations of a quiescent tree: the second reuses the
     memoized enumeration but still carries a fresh signature over its
     own nonce. *)
  let a1 = get_ok (Tyche.Monitor.attest m ~caller:os ~domain:enclave ~nonce:"n1") in
  let a2 = get_ok (Tyche.Monitor.attest m ~caller:os ~domain:enclave ~nonce:"n2") in
  Alcotest.(check bool) "same body" true (body a1 = body a2);
  Alcotest.(check bool) "both verify" true
    (Tyche.Attestation.verify ~monitor_root:(Tyche.Monitor.attestation_root m) a1
     && Tyche.Attestation.verify ~monitor_root:(Tyche.Monitor.attestation_root m) a2);
  (* The full-scan baseline enumerates the identical body. *)
  let indexed () = get_ok (Tyche.Monitor.attest_body_of m ~domain:enclave) in
  Alcotest.(check bool) "reference body agrees" true
    (reference_body m ~domain:enclave = indexed () && indexed () = body a1);
  (* A mutation anywhere in the tree invalidates the memo: share core 0
     with a third domain and the enclave's next attestation must see
     refcount 3. *)
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"d" ~kind:Tyche.Domain.Sandbox) in
  let _ =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:(os_core_cap w 0) ~to_:d
         ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ())
  in
  let a3 = get_ok (Tyche.Monitor.attest m ~caller:os ~domain:enclave ~nonce:"n4") in
  Alcotest.(check (list (pair int int))) "core refcount updated" [ (0, 3) ]
    a3.Tyche.Attestation.cores;
  Alcotest.(check bool) "reference agrees after mutation" true
    (reference_body m ~domain:enclave = body a3)

let test_attest_batch () =
  let w, enclave, _ = with_enclave () in
  let m = w.monitor in
  let root = Tyche.Monitor.attestation_root m in
  let atts = get_ok (Tyche.Monitor.attest_batch m ~caller:os ~domains:[ enclave; os ] ~nonce:"b") in
  Alcotest.(check (list int)) "reports in input order" [ enclave; os ]
    (List.map (fun a -> a.Tyche.Attestation.domain) atts);
  List.iter
    (fun att ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d batched report verifies" att.Tyche.Attestation.domain)
        true
        (Tyche.Attestation.verify ~monitor_root:root att))
    atts;
  (* All reports hang off the same Merkle root. *)
  (match List.map (fun a -> a.Tyche.Attestation.evidence.batch_root) atts with
  | [ r1; r2 ] -> Alcotest.(check bool) "shared batch root" true (Crypto.Sha256.equal r1 r2)
  | _ -> Alcotest.fail "expected two reports");
  (* A single attest is a batch of one: the same body, as the only leaf
     of its own tree. *)
  let single = get_ok (Tyche.Monitor.attest m ~caller:os ~domain:enclave ~nonce:"b") in
  Alcotest.(check bool) "single report is a one-leaf batch" true
    (single.Tyche.Attestation.evidence.proof = { Crypto.Merkle.leaf_index = 0; path = [] });
  Alcotest.(check bool) "single report verifies" true
    (Tyche.Attestation.verify ~monitor_root:root single);
  let body (a : Tyche.Attestation.t) =
    (a.Tyche.Attestation.regions, a.Tyche.Attestation.cores, a.Tyche.Attestation.devices)
  in
  Alcotest.(check bool) "batched body == single body" true
    (body (List.hd atts) = body single);
  (* A batched report survives the wire and cross-monitor roots reject it. *)
  (match Tyche.Attestation.of_wire (Tyche.Attestation.to_wire (List.hd atts)) with
  | Error e -> Alcotest.failf "wire roundtrip failed: %s" e
  | Ok att' ->
    Alcotest.(check bool) "roundtripped report verifies" true
      (Tyche.Attestation.verify ~monitor_root:root att'));
  let other = boot_x86 ~seed:0x98L () in
  Alcotest.(check bool) "foreign monitor root rejected" false
    (Tyche.Attestation.verify
       ~monitor_root:(Tyche.Monitor.attestation_root other.monitor)
       (List.hd atts));
  (* Edge cases: empty batch, unknown domain. *)
  Alcotest.(check bool) "empty batch" true
    (get_ok (Tyche.Monitor.attest_batch m ~caller:os ~domains:[] ~nonce:"e") = []);
  match Tyche.Monitor.attest_batch m ~caller:os ~domains:[ enclave; 999 ] ~nonce:"u" with
  | Error (Tyche.Monitor.Unknown_domain 999) -> ()
  | _ -> Alcotest.fail "unknown domain accepted in batch"

let test_attest_telemetry_counts_root_signatures () =
  (* [attests] counts root signatures: one per non-empty batch, whatever
     its size, and none for a batch that signs nothing. *)
  let w, enclave, _ = with_enclave () in
  let m = w.monitor in
  let attests () = (Tyche.Monitor.attest_telemetry m).Tyche.Monitor.attests in
  let before = attests () in
  ignore (get_ok (Tyche.Monitor.attest_batch m ~caller:os ~domains:[] ~nonce:"e"));
  Alcotest.(check int) "an empty batch counts no signature" before (attests ());
  ignore (get_ok (Tyche.Monitor.attest m ~caller:os ~domain:enclave ~nonce:"s"));
  Alcotest.(check int) "a single attest counts one root signature" (before + 1) (attests ());
  ignore (get_ok (Tyche.Monitor.attest_batch m ~caller:os ~domains:[ enclave; os ] ~nonce:"b"));
  Alcotest.(check int) "a batch of two counts one root signature" (before + 2) (attests ());
  (match Tyche.Monitor.attest_batch m ~caller:os ~domains:[ enclave; 999 ] ~nonce:"u" with
  | Error (Tyche.Monitor.Unknown_domain 999) -> ()
  | _ -> Alcotest.fail "unknown domain accepted in batch");
  Alcotest.(check int) "a refused batch counts no signature" (before + 2) (attests ())

let test_attest_batch_one_key () =
  (* A height-0 signer holds exactly one one-time key; a whole batch
     must fit in it, proving the batch consumes one key, not N. *)
  let rng = Crypto.Rng.create ~seed:0x31L in
  let signer = Crypto.Signature.create ~height:0 rng in
  let dom i =
    Tyche.Domain.make ~id:i ~name:(Printf.sprintf "d%d" i) ~kind:Tyche.Domain.Sandbox
      ~created_by:(Some 0)
  in
  let entry d = (d, [], [ (0, 1) ], [], false) in
  (* Empty batches consume nothing. *)
  Alcotest.(check bool) "empty batch consumes no key" true
    (Tyche.Attestation.sign_batch ~signer ~nonce:"n" [] = []);
  Alcotest.(check int) "key still available" 1 (Crypto.Signature.remaining signer);
  let atts =
    Tyche.Attestation.sign_batch ~signer ~nonce:"n"
      [ entry (dom 1); entry (dom 2); entry (dom 3) ]
  in
  Alcotest.(check int) "three reports" 3 (List.length atts);
  Alcotest.(check int) "single key consumed" 0 (Crypto.Signature.remaining signer);
  let root = Crypto.Signature.public_root signer in
  List.iter
    (fun att ->
      Alcotest.(check bool) "verifies" true
        (Tyche.Attestation.verify ~monitor_root:root att))
    atts;
  (* Evidence is not transplantable between batch members: report 1
     carrying report 2's proof must fail. *)
  match atts with
  | [ a1; a2; _ ] ->
    let forged = { a1 with Tyche.Attestation.evidence = a2.Tyche.Attestation.evidence } in
    Alcotest.(check bool) "swapped proof rejected" false
      (Tyche.Attestation.verify ~monitor_root:root forged)
  | _ -> Alcotest.fail "expected three reports"

let test_attest_exhausted_denied () =
  (* A height-0 signer holds one key. Once it is spent, every attest
     entry point returns a denial to its direct caller; none raises. *)
  let w = boot_x86 ~signer_height:0 () in
  let m = w.monitor in
  ignore (get_ok (Tyche.Monitor.attest m ~caller:os ~domain:os ~nonce:"first"));
  let denied what = function
    | Error (Tyche.Monitor.Denied _) -> ()
    | Ok _ -> Alcotest.failf "%s: signed with a spent signer" what
    | Error e -> Alcotest.failf "%s: %s" what (Tyche.Monitor.error_to_string e)
  in
  denied "attest" (Tyche.Monitor.attest m ~caller:os ~domain:os ~nonce:"second");
  denied "attest_batch" (Tyche.Monitor.attest_batch m ~caller:os ~domains:[ os ] ~nonce:"b");
  Alcotest.(check bool) "an empty batch needs no key" true
    (get_ok (Tyche.Monitor.attest_batch m ~caller:os ~domains:[] ~nonce:"e") = [])

(* The spec stack signs the monitor's own body byte for byte like the
   fast one: two signers drawn from equal seeds, one per stack. *)
let test_attest_spec_agrees () =
  let w, enclave, _ = with_enclave () in
  let m = w.monitor in
  let regions, cores, devices = get_ok (Tyche.Monitor.attest_body_of m ~domain:enclave) in
  let domain = Option.get (Tyche.Monitor.find_domain m enclave) in
  let signer () = Crypto.Signature.create ~height:2 (Crypto.Rng.create ~seed:0x5eL) in
  let fast =
    List.hd
      (Tyche.Attestation.sign_batch ~signer:(signer ()) ~nonce:"s"
         [ (domain, regions, cores, devices, false) ])
  and spec =
    Tyche.Attestation.sign_spec ~signer:(signer ()) ~domain ~regions ~cores ~devices
      ~memory_encrypted:false ~nonce:"s"
  in
  Alcotest.(check string) "identical reports" (Tyche.Attestation.to_wire fast)
    (Tyche.Attestation.to_wire spec);
  Alcotest.(check bool) "spec-stack report verifies" true
    (Tyche.Attestation.verify ~monitor_root:(Crypto.Signature.public_root (signer ())) spec)

let test_attest_nul_name_rejected () =
  let rng = Crypto.Rng.create ~seed:0x32L in
  let signer = Crypto.Signature.create ~height:0 rng in
  let evil =
    Tyche.Domain.make ~id:7 ~name:"inno\x00cent" ~kind:Tyche.Domain.Sandbox
      ~created_by:(Some 0)
  in
  Alcotest.check_raises "NUL name rejected at sign time"
    (Invalid_argument "Attestation.sign_batch: domain name contains NUL") (fun () ->
      ignore
        (Tyche.Attestation.sign_batch ~signer ~nonce:"n" [ (evil, [], [], [], false) ]));
  Alcotest.check_raises "NUL name rejected on the spec stack"
    (Invalid_argument "Attestation.sign_batch: domain name contains NUL") (fun () ->
      ignore
        (Tyche.Attestation.sign_spec ~signer ~domain:evil ~regions:[] ~cores:[] ~devices:[]
           ~memory_encrypted:false ~nonce:"n"))

let test_measurement_position_independence () =
  (* The same logical domain at two different load addresses measures
     identically (virtual-address reuse, §4.2). *)
  let content = Crypto.Sha256.string "payload" in
  let d1 =
    Tyche.Measure.domain_digest ~kind:Tyche.Domain.Enclave ~entry_point:0x10000
      ~flush_on_transition:true
      ~ranges:[ (range ~base:0x10000 ~len:page, content) ]
  in
  let d2 =
    Tyche.Measure.domain_digest ~kind:Tyche.Domain.Enclave ~entry_point:0x50000
      ~flush_on_transition:true
      ~ranges:[ (range ~base:0x50000 ~len:page, content) ]
  in
  Alcotest.(check bool) "position independent" true (Crypto.Sha256.equal d1 d2);
  (* But a different entry offset measures differently. *)
  let d3 =
    Tyche.Measure.domain_digest ~kind:Tyche.Domain.Enclave ~entry_point:0x50010
      ~flush_on_transition:true
      ~ranges:[ (range ~base:0x50000 ~len:page, content) ]
  in
  Alcotest.(check bool) "entry offset matters" false (Crypto.Sha256.equal d1 d3)

let test_boot_quote () =
  let w = boot_x86 () in
  let q = Tyche.Monitor.boot_quote w.monitor ~nonce:"fresh" in
  Alcotest.(check bool) "verifies" true
    (Rot.Tpm.Quote.verify ~root:(Rot.Tpm.endorsement_root w.tpm) q);
  Alcotest.(check int) "covers 4 PCRs" 4 (List.length q.Rot.Tpm.Quote.pcr_values);
  (* PCR 17 equals the offline expectation. *)
  let expected =
    Rot.Boot.expected_pcrs ~firmware ~loader:loader_blob ~monitor_image
  in
  List.iter
    (fun (pcr, v) ->
      match List.assoc_opt pcr q.Rot.Tpm.Quote.pcr_values with
      | Some actual ->
        Alcotest.(check bool) (Printf.sprintf "PCR %d golden" pcr) true
          (Crypto.Sha256.equal actual v)
      | None -> Alcotest.failf "PCR %d missing from quote" pcr)
    expected

let test_mark_measured_requires_holding () =
  let w = boot_x86 () in
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"d" ~kind:Tyche.Domain.Enclave) in
  (* d holds nothing yet: marking fails. *)
  expect_error (Tyche.Monitor.mark_measured m ~caller:os ~domain:d (range ~base:0x50000 ~len:page))

let test_riscv_end_to_end () =
  let w = boot_riscv () in
  let m = w.monitor in
  let e = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"enc" ~kind:Tyche.Domain.Enclave) in
  let sub = range ~base:0x10000 ~len:page in
  let piece = get_ok (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w) ~subrange:sub) in
  get_ok (Tyche.Monitor.store_string m ~core:0 0x10000 "RVSECRET");
  let _ =
    get_ok (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:e ~rights:Cap.Rights.full
              ~cleanup:Cap.Revocation.Zero)
  in
  let _ =
    get_ok (Tyche.Monitor.share m ~caller:os ~cap:(os_core_cap w 0) ~to_:e
              ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ())
  in
  get_ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:e 0x10000);
  get_ok (Tyche.Monitor.seal m ~caller:os ~domain:e);
  (* PMP now blocks the OS from the enclave's segment. *)
  expect_error (Tyche.Monitor.load m ~core:0 0x10000);
  let p = get_ok (Tyche.Monitor.call m ~core:0 ~target:e) in
  Alcotest.(check bool) "pmp backend always traps" true (p = Tyche.Backend_intf.Trap_roundtrip);
  Alcotest.(check string) "enclave reads" "RVSECRET"
    (get_ok (Tyche.Monitor.load_string m ~core:0 (range ~base:0x10000 ~len:8)));
  let _ = get_ok (Tyche.Monitor.ret m ~core:0) in
  check_no_violations m

let () =
  Alcotest.run "monitor"
    [ ( "boot",
        [ Alcotest.test_case "initial state" `Quick test_boot_state;
          Alcotest.test_case "os memory access" `Quick test_os_memory_access;
          Alcotest.test_case "boot quote golden PCRs" `Quick test_boot_quote ] );
      ( "lifecycle",
        [ Alcotest.test_case "unknown caller" `Quick test_create_domain_unknown_caller;
          Alcotest.test_case "seal requires entry" `Quick test_seal_requires_entry_point;
          Alcotest.test_case "creator-only config" `Quick test_configure_requires_creator;
          Alcotest.test_case "mark_measured requires holding" `Quick
            test_mark_measured_requires_holding;
          Alcotest.test_case "destroy" `Quick test_destroy_domain;
          Alcotest.test_case "destroy running rejected" `Quick
            test_destroy_running_domain_rejected ] );
      ( "authorization",
        [ Alcotest.test_case "share ownership" `Quick test_share_authorization;
          Alcotest.test_case "sealed not extendable" `Quick
            test_sealed_domain_cannot_be_extended;
          Alcotest.test_case "revoke authorization" `Quick test_revoke_authorization;
          Alcotest.test_case "aliased revoke keeps coverage" `Quick test_revoke_aliased_caps;
          Alcotest.test_case "revoke cascade size" `Quick test_revoke_cascade_size ] );
      ( "enforcement",
        [ Alcotest.test_case "os blocked from enclave" `Quick test_enforcement_os_blocked;
          Alcotest.test_case "revocation zeroes + restores" `Quick
            test_revocation_zeroes_and_restores ] );
      ( "transitions",
        [ Alcotest.test_case "call/ret" `Quick test_call_and_ret;
          Alcotest.test_case "core capability required" `Quick
            test_call_requires_core_capability;
          Alcotest.test_case "unsealed target rejected" `Quick test_call_rejects_unsealed;
          Alcotest.test_case "empty stack ret" `Quick test_ret_empty_stack;
          Alcotest.test_case "self call rejected" `Quick test_call_self_rejected;
          Alcotest.test_case "nested calls" `Quick test_nested_calls;
          Alcotest.test_case "vmfunc second call" `Quick test_vmfunc_fast_path_second_call;
          Alcotest.test_case "flush forces trap" `Quick test_flush_policy_forces_trap ] );
      ( "attestation",
        [ Alcotest.test_case "contents" `Quick test_attestation_contents;
          Alcotest.test_case "tamper detected" `Quick test_attestation_tamper_detected;
          Alcotest.test_case "measurement reproducible" `Quick
            test_attestation_measurement_matches_content;
          Alcotest.test_case "memoized body, fresh signatures" `Quick
            test_attestation_memoized;
          Alcotest.test_case "batch" `Quick test_attest_batch;
          Alcotest.test_case "batch consumes one key" `Quick test_attest_batch_one_key;
          Alcotest.test_case "spec stack agrees" `Quick test_attest_spec_agrees;
          Alcotest.test_case "exhausted signer denies" `Quick test_attest_exhausted_denied;
          Alcotest.test_case "NUL name rejected" `Quick test_attest_nul_name_rejected;
          Alcotest.test_case "position independence" `Quick
            test_measurement_position_independence;
          Alcotest.test_case "telemetry counts root signatures" `Quick
            test_attest_telemetry_counts_root_signatures ] );
      ( "riscv",
        [ Alcotest.test_case "end to end on PMP" `Quick test_riscv_end_to_end ] ) ]
