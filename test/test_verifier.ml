(* Remote-verifier tests: chain of trust, policies, and end-to-end
   trust decisions. *)

open Testkit

let range ~base ~len = Hw.Addr.Range.make ~base ~len
let page = Hw.Addr.page_size

let reference_values w =
  { Verifier.tpm_root = Rot.Tpm.endorsement_root w.tpm;
    expected_pcrs = Rot.Boot.expected_pcrs ~firmware ~loader:loader_blob ~monitor_image;
    monitor_root = Tyche.Monitor.attestation_root w.monitor }

let test_verify_boot_ok () =
  let w = boot_x86 () in
  let rv = reference_values w in
  let quote = Tyche.Monitor.boot_quote w.monitor ~nonce:"n1" in
  match
    Verifier.Chain.verify_boot ~tpm_root:rv.Verifier.tpm_root
      ~expected_pcrs:rv.Verifier.expected_pcrs
      ~claimed_monitor_root:rv.Verifier.monitor_root ~nonce:"n1" quote
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "boot verification failed: %s" e

let test_verify_boot_rejects_replay () =
  let w = boot_x86 () in
  let rv = reference_values w in
  let quote = Tyche.Monitor.boot_quote w.monitor ~nonce:"old" in
  match
    Verifier.Chain.verify_boot ~tpm_root:rv.Verifier.tpm_root
      ~expected_pcrs:rv.Verifier.expected_pcrs
      ~claimed_monitor_root:rv.Verifier.monitor_root ~nonce:"fresh" quote
  with
  | Error e -> Alcotest.(check bool) "nonce error" true (contains_substring e "nonce")
  | Ok () -> Alcotest.fail "replayed quote accepted"

let test_verify_boot_rejects_wrong_monitor () =
  (* Boot a machine with a DIFFERENT monitor image: PCR 17 diverges. *)
  let machine = Hw.Machine.create () in
  let rng = Crypto.Rng.create ~seed:5L in
  let tpm = Rot.Tpm.create rng in
  let report =
    Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob
      ~monitor_image:"evil-monitor"
  in
  let backend = Backend_x86.create machine () in
  let monitor =
    Tyche.Monitor.boot machine ~backend ~tpm ~rng ~monitor_range:report.Rot.Boot.monitor_range
  in
  let quote = Tyche.Monitor.boot_quote monitor ~nonce:"n" in
  match
    Verifier.Chain.verify_boot ~tpm_root:(Rot.Tpm.endorsement_root tpm)
      ~expected_pcrs:(Rot.Boot.expected_pcrs ~firmware ~loader:loader_blob ~monitor_image)
      ~claimed_monitor_root:(Tyche.Monitor.attestation_root monitor) ~nonce:"n" quote
  with
  | Error e -> Alcotest.(check bool) "PCR mismatch" true (contains_substring e "PCR")
  | Ok () -> Alcotest.fail "wrong monitor accepted"

let test_verify_boot_rejects_key_substitution () =
  (* Correct boot, but the attacker claims a different attestation key:
     the PCR-18 binding catches it. *)
  let w = boot_x86 () in
  let rv = reference_values w in
  let quote = Tyche.Monitor.boot_quote w.monitor ~nonce:"n" in
  let fake_root = Crypto.Sha256.string "attacker key" in
  match
    Verifier.Chain.verify_boot ~tpm_root:rv.Verifier.tpm_root
      ~expected_pcrs:rv.Verifier.expected_pcrs ~claimed_monitor_root:fake_root ~nonce:"n"
      quote
  with
  | Error e -> Alcotest.(check bool) "binding error" true (contains_substring e "bind")
  | Ok () -> Alcotest.fail "key substitution accepted"

let test_verify_boot_rejects_wrong_tpm () =
  let w = boot_x86 () in
  let rv = reference_values w in
  let quote = Tyche.Monitor.boot_quote w.monitor ~nonce:"n" in
  let other_tpm = Rot.Tpm.create (Crypto.Rng.create ~seed:123L) in
  match
    Verifier.Chain.verify_boot ~tpm_root:(Rot.Tpm.endorsement_root other_tpm)
      ~expected_pcrs:rv.Verifier.expected_pcrs
      ~claimed_monitor_root:rv.Verifier.monitor_root ~nonce:"n" quote
  with
  | Error e -> Alcotest.(check bool) "signature error" true (contains_substring e "signature")
  | Ok () -> Alcotest.fail "foreign TPM accepted"

(* Policies *)

let sealed_enclave w =
  let h =
    get_ok_str
      (Libtyche.Enclave.create w.monitor ~caller:os ~core:0 ~memory_cap:(os_memory_cap w)
         ~at:0x40000 ~image:(tiny_image ()) ())
  in
  h

let attest w domain nonce =
  get_ok (Tyche.Monitor.attest w.monitor ~caller:os ~domain ~nonce)

let test_policy_requirements () =
  let w = boot_x86 () in
  let h = sealed_enclave w in
  let att = attest w h.Libtyche.Handle.domain "n" in
  let image = tiny_image () in
  let code = range ~base:0x40000 ~len:page in
  let shared = range ~base:(0x40000 + (2 * page)) ~len:page in
  (* A policy that should pass. *)
  let good =
    [ Verifier.Policy.Sealed;
      Verifier.Policy.Kind_is Tyche.Domain.Enclave;
      Verifier.Policy.Measurement_is (Libtyche.Enclave.expected_measurement image);
      Verifier.Policy.Region_exclusive code;
      Verifier.Policy.Region_shared_only_with (shared, [ os ]);
      Verifier.Policy.No_foreign_sharing_except [ os ];
      Verifier.Policy.Has_core 0 ]
  in
  (match Verifier.Policy.check good att with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "good policy failed: %s" (String.concat "; " msgs));
  (* Each failing requirement is reported. *)
  let bad =
    [ Verifier.Policy.Kind_is Tyche.Domain.Sandbox;
      Verifier.Policy.Measurement_is (Crypto.Sha256.string "other binary");
      Verifier.Policy.Region_exclusive shared;
      Verifier.Policy.Region_shared_only_with (shared, []);
      Verifier.Policy.No_foreign_sharing_except [];
      Verifier.Policy.Has_core 3;
      Verifier.Policy.Holds_device 0x99 ]
  in
  match Verifier.Policy.check bad att with
  | Ok () -> Alcotest.fail "bad policy passed"
  | Error msgs -> Alcotest.(check int) "all failures reported" 7 (List.length msgs)

let test_policy_unsealed_detected () =
  let w = boot_x86 () in
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"d" ~kind:Tyche.Domain.Enclave) in
  let att = attest w d "n" in
  match Verifier.Policy.check [ Verifier.Policy.Sealed ] att with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unsealed domain passed Sealed policy"

(* The anti-downgrade check (directed regression for the byzantine
   fuzzer's downgrade attack class): every report is Merkle-batched and
   the v1 envelope of a directly signed report is retired, so a report
   wrapped in it — around its genuine root signature — must not parse.
   A verifier has no weaker form to be downgraded to. *)
let test_retired_v1_envelope_rejected () =
  let w = boot_x86 () in
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"peer" ~kind:Tyche.Domain.Sandbox) in
  let batches =
    [ get_ok (Tyche.Monitor.attest_batch m ~caller:os ~domains:[ os ] ~nonce:"one");
      get_ok (Tyche.Monitor.attest_batch m ~caller:os ~domains:[ os; d ] ~nonce:"two") ]
  in
  List.iter
    (List.iter (fun att ->
         match Tyche.Attestation.of_wire (v1_envelope att) with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "report in the retired v1 envelope parsed"))
    batches

let test_establish_trust_end_to_end () =
  let w = boot_x86 () in
  let h = sealed_enclave w in
  let rv = reference_values w in
  let nonce = "customer-nonce-1" in
  let decision =
    Verifier.attest_and_decide w.monitor rv ~nonce
      ~domains:
        [ ( h.Libtyche.Handle.domain,
            [ Verifier.Policy.Sealed;
              Verifier.Policy.Measurement_is
                (Libtyche.Enclave.expected_measurement (tiny_image ())) ] ) ]
  in
  Alcotest.(check bool)
    (Format.asprintf "trusted: %a" Verifier.pp_decision decision)
    true decision.Verifier.trusted

let test_establish_trust_detects_wrong_binary () =
  let w = boot_x86 () in
  let h = sealed_enclave w in
  let rv = reference_values w in
  let decision =
    Verifier.attest_and_decide w.monitor rv ~nonce:"n"
      ~domains:
        [ ( h.Libtyche.Handle.domain,
            [ Verifier.Policy.Measurement_is (Crypto.Sha256.string "expected-other-binary") ] ) ]
  in
  Alcotest.(check bool) "rejected" false decision.Verifier.trusted;
  Alcotest.(check bool) "measurement failure named" true
    (List.exists (fun f -> contains_substring f "measurement") decision.Verifier.failures)

let test_establish_trust_unknown_domain () =
  let w = boot_x86 () in
  let rv = reference_values w in
  let decision = Verifier.attest_and_decide w.monitor rv ~nonce:"n" ~domains:[ (77, []) ] in
  Alcotest.(check bool) "rejected" false decision.Verifier.trusted;
  Alcotest.(check bool) "unavailable named" true
    (List.exists (fun f -> contains_substring f "unavailable") decision.Verifier.failures)

(* --- Topology: multi-domain deployment verification --- *)

(* Two enclaves with a shared page (edge), plus a loner enclave. *)
let deployment () =
  let w = boot_x86 ~mem_size:(32 * 1024 * 1024) () in
  let m = w.monitor in
  let image = tiny_image ~shared_page:false () in
  let a =
    get_ok_str
      (Libtyche.Enclave.create m ~caller:os ~core:0 ~memory_cap:(os_memory_cap w)
         ~at:0x200000 ~image ())
  in
  let b =
    get_ok_str
      (Libtyche.Loader.load m ~caller:os ~core:0 ~memory_cap:(os_memory_cap w)
         ~at:0x300000 ~image ~kind:Tyche.Domain.Enclave ~seal:false ())
  in
  let c =
    get_ok_str
      (Libtyche.Enclave.create m ~caller:os ~core:0 ~memory_cap:(os_memory_cap w)
         ~at:0x400000 ~image ())
  in
  (* a shares its .data page with b, then b seals. *)
  let data_cap = Option.get (Libtyche.Handle.segment_cap a ".data") in
  let _ =
    get_ok
      (Tyche.Monitor.share m ~caller:a.Libtyche.Handle.domain ~cap:data_cap
         ~to_:b.Libtyche.Handle.domain ~rights:Cap.Rights.rw
         ~cleanup:Cap.Revocation.Zero ())
  in
  get_ok (Tyche.Monitor.seal m ~caller:os ~domain:b.Libtyche.Handle.domain);
  (w, a, b, c)

let topo_nodes () =
  let meas =
    Libtyche.Enclave.expected_measurement (tiny_image ~shared_page:false ())
  in
  [ { Verifier.Topology.label = "a"; measurement = meas };
    { Verifier.Topology.label = "b"; measurement = meas };
    { Verifier.Topology.label = "c"; measurement = meas } ]

let bindings w (a : Libtyche.Handle.t) b c =
  List.map
    (fun (label, domain) ->
      (label, get_ok (Tyche.Monitor.attest w.monitor ~caller:os ~domain ~nonce:"t")))
    [ ("a", a.Libtyche.Handle.domain); ("b", b.Libtyche.Handle.domain);
      ("c", c.Libtyche.Handle.domain) ]

let test_topology_ok () =
  let w, a, b, c = deployment () in
  let topo =
    Result.get_ok
      (Verifier.Topology.declare ~nodes:(topo_nodes ()) ~edges:[ ("a", "b") ] ())
  in
  match Verifier.Topology.verify topo ~bindings:(bindings w a b c) with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "topology rejected: %s" (String.concat "; " msgs)

let test_topology_detects_undeclared_edge () =
  let w, a, b, c = deployment () in
  (* Declare a and b as unconnected: the shared page is now a backdoor. *)
  let topo =
    Result.get_ok (Verifier.Topology.declare ~nodes:(topo_nodes ()) ~edges:[] ())
  in
  match Verifier.Topology.verify topo ~bindings:(bindings w a b c) with
  | Error msgs ->
    Alcotest.(check bool) "undeclared path named" true
      (List.exists (fun m -> contains_substring m "undeclared") msgs)
  | Ok () -> Alcotest.fail "backdoor sharing accepted"

let test_topology_detects_missing_edge_backing () =
  let w, a, b, c = deployment () in
  (* Declare an edge that does not exist (a--c share nothing). *)
  let topo =
    Result.get_ok
      (Verifier.Topology.declare ~nodes:(topo_nodes ())
         ~edges:[ ("a", "b"); ("a", "c") ] ())
  in
  match Verifier.Topology.verify topo ~bindings:(bindings w a b c) with
  | Error msgs ->
    Alcotest.(check bool) "missing backing named" true
      (List.exists (fun m -> contains_substring m "no region shared") msgs)
  | Ok () -> Alcotest.fail "phantom edge accepted"

let test_topology_detects_wrong_measurement () =
  let w, a, b, c = deployment () in
  let nodes =
    List.map
      (fun n ->
        if n.Verifier.Topology.label = "c" then
          { n with Verifier.Topology.measurement = Crypto.Sha256.string "imposter" }
        else n)
      (topo_nodes ())
  in
  let topo = Result.get_ok (Verifier.Topology.declare ~nodes ~edges:[ ("a", "b") ] ()) in
  match Verifier.Topology.verify topo ~bindings:(bindings w a b c) with
  | Error msgs ->
    Alcotest.(check bool) "measurement mismatch named" true
      (List.exists (fun m -> contains_substring m "measurement") msgs)
  | Ok () -> Alcotest.fail "imposter accepted"

let test_topology_missing_binding () =
  let w, a, b, c = deployment () in
  let topo =
    Result.get_ok (Verifier.Topology.declare ~nodes:(topo_nodes ()) ~edges:[ ("a", "b") ] ())
  in
  let partial = List.filter (fun (l, _) -> l <> "c") (bindings w a b c) in
  match Verifier.Topology.verify topo ~bindings:partial with
  | Error msgs ->
    Alcotest.(check bool) "missing node named" true
      (List.exists (fun m -> contains_substring m "no attestation") msgs)
  | Ok () -> Alcotest.fail "missing node accepted"

let test_topology_declare_validation () =
  let nodes = topo_nodes () in
  (match Verifier.Topology.declare ~nodes ~edges:[ ("a", "a") ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "self loop accepted");
  (match Verifier.Topology.declare ~nodes ~edges:[ ("a", "zz") ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown label accepted");
  match Verifier.Topology.declare ~nodes:(nodes @ [ List.hd nodes ]) ~edges:[] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate labels accepted"

let test_topology_edge_discovery () =
  let w, a, b, c = deployment () in
  Alcotest.(check (list (pair string string)))
    "discovered graph" [ ("a", "b") ]
    (Verifier.Topology.edges_of_attestations (bindings w a b c))

let () =
  Alcotest.run "verifier"
    [ ( "chain",
        [ Alcotest.test_case "boot ok" `Quick test_verify_boot_ok;
          Alcotest.test_case "replay rejected" `Quick test_verify_boot_rejects_replay;
          Alcotest.test_case "wrong monitor rejected" `Quick
            test_verify_boot_rejects_wrong_monitor;
          Alcotest.test_case "key substitution rejected" `Quick
            test_verify_boot_rejects_key_substitution;
          Alcotest.test_case "wrong tpm rejected" `Quick test_verify_boot_rejects_wrong_tpm ] );
      ( "policy",
        [ Alcotest.test_case "requirements" `Quick test_policy_requirements;
          Alcotest.test_case "unsealed detected" `Quick test_policy_unsealed_detected;
          Alcotest.test_case "retired v1 envelope is rejected" `Quick
            test_retired_v1_envelope_rejected ] );
      ( "decision",
        [ Alcotest.test_case "end to end trusted" `Quick test_establish_trust_end_to_end;
          Alcotest.test_case "wrong binary rejected" `Quick
            test_establish_trust_detects_wrong_binary;
          Alcotest.test_case "unknown domain" `Quick test_establish_trust_unknown_domain ] ) ;
      ( "topology",
        [ Alcotest.test_case "honest deployment passes" `Quick test_topology_ok;
          Alcotest.test_case "undeclared edge detected" `Quick
            test_topology_detects_undeclared_edge;
          Alcotest.test_case "phantom edge detected" `Quick
            test_topology_detects_missing_edge_backing;
          Alcotest.test_case "wrong measurement detected" `Quick
            test_topology_detects_wrong_measurement;
          Alcotest.test_case "missing binding detected" `Quick test_topology_missing_binding;
          Alcotest.test_case "declare validation" `Quick test_topology_declare_validation;
          Alcotest.test_case "edge discovery" `Quick test_topology_edge_discovery ] ) ]
