(* Edge cases and error paths across the stack: the small contracts that
   don't fit the feature-oriented suites. *)

open Testkit

let range ~base ~len = Hw.Addr.Range.make ~base ~len

(* Monitor surface *)

let test_monitor_split_ownership () =
  let w = boot_x86 () in
  let m = w.monitor in
  let cap = os_memory_cap w in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"d" ~kind:Tyche.Domain.Sandbox) in
  (* Non-owner cannot split. *)
  (match Tyche.Monitor.split m ~caller:d ~cap ~at:0x10000 with
  | Error (Tyche.Monitor.Denied _) -> ()
  | _ -> Alcotest.fail "non-owner split accepted");
  let l, r = get_ok (Tyche.Monitor.split m ~caller:os ~cap ~at:0x10000) in
  Alcotest.(check bool) "both pieces owned by os" true
    (Cap.Captree.owner (Tyche.Monitor.tree m) l = Some os
     && Cap.Captree.owner (Tyche.Monitor.tree m) r = Some os);
  (* The OS can still touch memory on both sides of the cut. *)
  get_ok (Tyche.Monitor.store m ~core:0 0x8000 1);
  get_ok (Tyche.Monitor.store m ~core:0 0x18000 1);
  check_no_violations m

let test_monitor_bad_core_arguments () =
  let w = boot_x86 ~cores:2 () in
  let m = w.monitor in
  expect_error (Tyche.Monitor.call m ~core:9 ~target:os);
  expect_error (Tyche.Monitor.timer_tick m ~core:9);
  expect_error (Tyche.Monitor.load m ~core:(-1) 0);
  expect_error (Tyche.Monitor.route_interrupt m ~caller:os ~device:1 ~vector:3 ~core:9);
  expect_error (Tyche.Monitor.get_reg m ~core:0 99)

let test_attest_unknown_parties () =
  let w = boot_x86 () in
  expect_error (Tyche.Monitor.attest w.monitor ~caller:42 ~domain:os ~nonce:"n");
  expect_error (Tyche.Monitor.attest w.monitor ~caller:os ~domain:42 ~nonce:"n")

let test_attestation_payload_deterministic () =
  let w = boot_x86 () in
  let att1 = get_ok (Tyche.Monitor.attest w.monitor ~caller:os ~domain:os ~nonce:"same") in
  let att2 = get_ok (Tyche.Monitor.attest w.monitor ~caller:os ~domain:os ~nonce:"same") in
  Alcotest.(check string) "payload bytes deterministic"
    (Tyche.Attestation.payload att1) (Tyche.Attestation.payload att2)

let test_carve_unaligned_grant_refused () =
  (* The captree happily carves byte-granular ranges; the EPT backend
     refuses them at delegation time. *)
  let w = boot_x86 () in
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"d" ~kind:Tyche.Domain.Sandbox) in
  let piece =
    get_ok
      (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w)
         ~subrange:(range ~base:0x10008 ~len:100))
  in
  match
    Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:d ~rights:Cap.Rights.rw
      ~cleanup:Cap.Revocation.Keep
  with
  | Error (Tyche.Monitor.Backend_refused _) -> ()
  | _ -> Alcotest.fail "unaligned grant accepted by the EPT backend"

(* Boot / machine construction *)

let test_boot_image_too_large () =
  let machine = Hw.Machine.create ~mem_size:(1024 * 1024) () in
  let tpm = Rot.Tpm.create (Crypto.Rng.create ~seed:1L) in
  Alcotest.check_raises "oversized monitor"
    (Invalid_argument "Boot.measured_boot: monitor image too large") (fun () ->
      ignore
        (Rot.Boot.measured_boot tpm machine ~firmware:"f" ~loader:"l"
           ~monitor_image:(String.make (2 * 1024 * 1024) 'M')))

let test_machine_validation () =
  Alcotest.check_raises "zero cores"
    (Invalid_argument "Machine.create: need at least one core") (fun () ->
      ignore (Hw.Machine.create ~cores:0 ()));
  Alcotest.check_raises "unaligned memory"
    (Invalid_argument "Physmem.create: size must be positive and page-aligned") (fun () ->
      ignore (Hw.Physmem.create ~size:12345))

let test_tpm_pcr_bounds () =
  let tpm = Rot.Tpm.create (Crypto.Rng.create ~seed:2L) in
  Alcotest.check_raises "pcr out of range" (Invalid_argument "Tpm: PCR index out of range")
    (fun () -> Rot.Tpm.extend tpm ~pcr:24 (Crypto.Sha256.string "x"));
  (* Extend-only semantics: the same value extended twice gives a new
     value both times (no reset). *)
  let m = Crypto.Sha256.string "event" in
  Rot.Tpm.extend tpm ~pcr:1 m;
  let after_one = Rot.Tpm.read_pcr tpm 1 in
  Rot.Tpm.extend tpm ~pcr:1 m;
  Alcotest.(check bool) "second extend changes the value" false
    (Crypto.Sha256.equal after_one (Rot.Tpm.read_pcr tpm 1))

(* Channels *)

let test_channel_loses_privacy_on_extra_share () =
  let w = boot_x86 () in
  let m = w.monitor in
  let h =
    get_ok_str
      (Libtyche.Enclave.create m ~caller:os ~core:0 ~memory_cap:(os_memory_cap w)
         ~at:0x40000 ~image:(tiny_image ()) ())
  in
  let data_cap = Option.get (Libtyche.Handle.segment_cap h ".data") in
  let data_range = Option.get (Libtyche.Handle.segment_range h ".data") in
  let ch =
    get_ok_str
      (Libtyche.Channel.create m ~owner:h.Libtyche.Handle.domain ~peer:os
         ~memory_cap:data_cap ~range:data_range ())
  in
  Alcotest.(check bool) "private at creation" true (Libtyche.Channel.is_private ch m);
  (* The enclave (unwisely) shares the same page with a third domain:
     the channel is no longer private — and any verifier can see it. *)
  let third = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"third" ~kind:Tyche.Domain.Sandbox) in
  let ch_cap =
    List.find
      (fun c ->
        match Cap.Captree.resource (Tyche.Monitor.tree m) c with
        | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.overlaps r data_range
        | _ -> false)
      (Tyche.Monitor.caps_of m h.Libtyche.Handle.domain)
  in
  let _ =
    get_ok
      (Tyche.Monitor.share m ~caller:h.Libtyche.Handle.domain ~cap:ch_cap ~to_:third
         ~rights:Cap.Rights.read_only ~cleanup:Cap.Revocation.Keep ())
  in
  Alcotest.(check bool) "no longer private" false (Libtyche.Channel.is_private ch m)

(* Distributed sessions *)

let test_session_evidence_nonce_mismatch () =
  let w = boot_x86 () in
  let h =
    get_ok_str
      (Libtyche.Enclave.create w.monitor ~caller:os ~core:0 ~memory_cap:(os_memory_cap w)
         ~at:0x40000 ~image:(tiny_image ~shared_page:false ()) ())
  in
  let stale =
    get_ok_str
      (Distributed.Session.gather_evidence w.monitor ~domain:h.Libtyche.Handle.domain
         ~nonce:"yesterday")
  in
  let party =
    { Distributed.Session.name = "m";
      reference =
        { Verifier.tpm_root = Rot.Tpm.endorsement_root w.tpm;
          expected_pcrs = Rot.Boot.expected_pcrs ~firmware ~loader:loader_blob ~monitor_image;
          monitor_root = Tyche.Monitor.attestation_root w.monitor };
      policy = [] }
  in
  match
    Distributed.Session.establish ~nonce:"today" ~a:(party, stale) ~b:(party, stale)
  with
  | Error msgs ->
    Alcotest.(check bool) "nonce named" true
      (List.exists (fun m -> contains_substring m "nonce") msgs)
  | Ok _ -> Alcotest.fail "stale evidence keyed a session"

(* Attestation wire format *)

let test_attestation_wire_roundtrip () =
  let w = boot_x86 () in
  let m = w.monitor in
  let h =
    get_ok_str
      (Libtyche.Enclave.create m ~caller:os ~core:0 ~memory_cap:(os_memory_cap w)
         ~at:0x40000 ~image:(tiny_image ()) ())
  in
  let att = get_ok (Tyche.Monitor.attest m ~caller:os ~domain:h.Libtyche.Handle.domain ~nonce:"wire") in
  let wire = Tyche.Attestation.to_wire att in
  (* Ship over the untrusted network as raw bytes. *)
  let net = Distributed.Network.create () in
  Distributed.Network.send net ~from_:"host" ~to_:"verifier" wire;
  let received = Option.get (Distributed.Network.recv net "verifier") in
  (match Tyche.Attestation.of_wire received with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok att' ->
    Alcotest.(check bool) "reconstructed report verifies" true
      (Tyche.Attestation.verify ~monitor_root:(Tyche.Monitor.attestation_root m) att');
    Alcotest.(check int) "fields preserved" att.Tyche.Attestation.domain
      att'.Tyche.Attestation.domain;
    Alcotest.(check int) "regions preserved"
      (List.length att.Tyche.Attestation.regions)
      (List.length att'.Tyche.Attestation.regions);
    Alcotest.(check string) "nonce preserved" att.Tyche.Attestation.nonce
      att'.Tyche.Attestation.nonce)

(* The envelope's bytes are a format remote verifiers parse: the hex
   SHA-256 of both reports of a fixed two-domain batch (fixed boot seed
   and nonce) must not move. Never re-derive the digests from the code
   under test. *)
let test_attestation_wire_golden () =
  let w = boot_x86 ~seed:0x60L () in
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"peer" ~kind:Tyche.Domain.Sandbox) in
  let atts = get_ok (Tyche.Monitor.attest_batch m ~caller:os ~domains:[ os; d ] ~nonce:"golden") in
  Alcotest.(check (list string)) "envelope digests"
    [ "3369b3dda93cefe8201f7f12723a00e76cabdcb3ed4686c706c1b16f79ca4e54";
      "aa8ecc4f50dbe9975ba231365dafc0efdfb4bd94f2fc6657c30148efa8bce330" ]
    (List.map
       (fun a -> Crypto.Sha256.to_hex (Crypto.Sha256.string (Tyche.Attestation.to_wire a)))
       atts)

(* Flip one byte at EVERY offset of an envelope: each flip must break
   the parse or the verification — no byte of the wire format may be
   unauthenticated (redundant index fields and ignored high bits were
   historically exactly such holes). *)
let assert_every_byte_authenticated ~what ~root wire =
  for i = 0 to String.length wire - 1 do
    let tampered = Bytes.of_string wire in
    Bytes.set tampered i (Char.chr (Char.code (Bytes.get tampered i) lxor 0x01));
    match Tyche.Attestation.of_wire (Bytes.to_string tampered) with
    | Error _ -> ()
    | Ok att' ->
      if Tyche.Attestation.verify ~monitor_root:root att' then
        Alcotest.failf "%s: tampered byte %d of %d accepted" what i (String.length wire)
  done

let test_attestation_wire_tamper () =
  let w = boot_x86 () in
  let m = w.monitor in
  let root = Tyche.Monitor.attestation_root m in
  let att = get_ok (Tyche.Monitor.attest m ~caller:os ~domain:os ~nonce:"t") in
  let wire = Tyche.Attestation.to_wire att in
  assert_every_byte_authenticated ~what:"single" ~root wire;
  (* Same property for the reports of a two-domain batch, whose proofs
     are not empty. *)
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"peer" ~kind:Tyche.Domain.Sandbox) in
  let atts = get_ok (Tyche.Monitor.attest_batch m ~caller:os ~domains:[ os; d ] ~nonce:"t2") in
  List.iter
    (fun a -> assert_every_byte_authenticated ~what:"batched" ~root (Tyche.Attestation.to_wire a))
    atts;
  (* Truncation is rejected outright. *)
  (match Tyche.Attestation.of_wire (String.sub wire 0 (String.length wire / 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated wire parsed")

(* Round-trip property over randomized reports: the envelope of a
   single report (a batch of one, with an empty proof) and of a batched
   one must reproduce the exact report (and hence the exact wire
   bytes). The evidence is fixed — produced once by a real monitor —
   because the property targets the codec, not the crypto. *)
let wire_evidence =
  lazy
    (let w = boot_x86 () in
     let m = w.monitor in
     let single = get_ok (Tyche.Monitor.attest m ~caller:os ~domain:os ~nonce:"fix") in
     let d =
       get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"d" ~kind:Tyche.Domain.Sandbox)
     in
     let batch = get_ok (Tyche.Monitor.attest_batch m ~caller:os ~domains:[ os; d ] ~nonce:"fix") in
     (single.Tyche.Attestation.evidence, (List.nth batch 1).Tyche.Attestation.evidence))

let gen_report =
  QCheck.Gen.(
    let nul_free =
      string_size ~gen:(map (fun c -> if c = '\x00' then 'a' else c) char) (0 -- 12)
    in
    let region =
      map3
        (fun (base, len) (r, w, x) (holders, measured) ->
          { Tyche.Attestation.range =
              Hw.Addr.Range.make ~base:(base * 0x1000) ~len:((len + 1) * 0x1000);
            perm = { Hw.Perm.read = r; write = w; exec = x };
            refcount = List.length holders;
            holders;
            measured })
        (pair (0 -- 10000) (0 -- 64))
        (triple bool bool bool)
        (pair (list_size (0 -- 6) (0 -- 1000)) bool)
    in
    let pairs = list_size (0 -- 4) (pair (0 -- 100) (0 -- 100)) in
    (fun evidence ->
      map
        (fun ((domain, name, kind, sealed), (measurement, regions, cores, devices), (enc, nonce)) ->
          { Tyche.Attestation.domain;
            domain_name = name;
            kind;
            sealed;
            measurement;
            regions;
            cores;
            devices;
            memory_encrypted = enc;
            nonce;
            evidence })
        (triple
           (quad (0 -- 100000) nul_free
              (oneofl
                 [ Tyche.Domain.Os; Tyche.Domain.Sandbox; Tyche.Domain.Enclave;
                   Tyche.Domain.Confidential_vm; Tyche.Domain.Io_domain ])
              bool)
           (quad
              (option (map (fun s -> Crypto.Sha256.string s) (string_size (0 -- 8))))
              (list_size (0 -- 5) region) pairs pairs)
           (pair bool (string_size (0 -- 30))))))

let prop_attestation_wire_roundtrip_random which =
  QCheck.Test.make
    ~name:(Printf.sprintf "attestation: %s wire roundtrip on random reports" which)
    ~count:100
    (QCheck.make (fun st ->
         let single, batched = Lazy.force wire_evidence in
         gen_report (if which = "single" then single else batched) st))
    (fun att ->
      let wire = Tyche.Attestation.to_wire att in
      match Tyche.Attestation.of_wire wire with
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e
      | Ok att' -> att' = att && Tyche.Attestation.to_wire att' = wire)

let prop_attestation_wire_garbage =
  QCheck.Test.make ~name:"attestation: of_wire total on garbage" ~count:300
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun junk ->
      match Tyche.Attestation.of_wire junk with Ok _ -> true | Error _ -> true)

(* Lattice algebra properties *)

let prop_rights_attenuation_reflexive_transitive =
  QCheck.Test.make ~name:"rights: attenuation is reflexive and transitive" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let rights =
           oneofl
             [ Cap.Rights.full; Cap.Rights.rw; Cap.Rights.rx; Cap.Rights.read_only;
               Cap.Rights.exclusive_use ]
         in
         triple rights rights rights))
    (fun (a, b, c) ->
      Cap.Rights.attenuates ~parent:a ~child:a
      && ((not (Cap.Rights.attenuates ~parent:a ~child:b
                && Cap.Rights.attenuates ~parent:b ~child:c))
          || Cap.Rights.attenuates ~parent:a ~child:c))

let prop_revocation_strongest_join =
  QCheck.Test.make ~name:"revocation: strongest is a commutative upper bound" ~count:100
    (QCheck.make
       QCheck.Gen.(
         let pol =
           oneofl
             [ Cap.Revocation.Keep; Cap.Revocation.Zero; Cap.Revocation.Flush_cache;
               Cap.Revocation.Zero_and_flush ]
         in
         pair pol pol))
    (fun (a, b) ->
      let j = Cap.Revocation.strongest a b in
      Cap.Revocation.equal j (Cap.Revocation.strongest b a)
      && (Cap.Revocation.zeroes_memory j
          = (Cap.Revocation.zeroes_memory a || Cap.Revocation.zeroes_memory b))
      && (Cap.Revocation.flushes_cache j
          = (Cap.Revocation.flushes_cache a || Cap.Revocation.flushes_cache b)))

let prop_perm_subsumes_partial_order =
  QCheck.Test.make ~name:"perm: subsumes is a partial order" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let perm =
           map3
             (fun read write exec -> { Hw.Perm.read; write; exec })
             bool bool bool
         in
         pair perm perm))
    (fun (a, b) ->
      Hw.Perm.subsumes a a
      && ((not (Hw.Perm.subsumes a b && Hw.Perm.subsumes b a)) || Hw.Perm.equal a b))

(* Topology allow_outside *)

let test_topology_allow_outside () =
  let w = boot_x86 () in
  let m = w.monitor in
  let image = tiny_image () (* has a .shared page the OS keeps *) in
  let h =
    get_ok_str
      (Libtyche.Enclave.create m ~caller:os ~core:0 ~memory_cap:(os_memory_cap w)
         ~at:0x40000 ~image ())
  in
  let node =
    { Verifier.Topology.label = "svc";
      measurement = Libtyche.Enclave.expected_measurement image }
  in
  let att = get_ok (Tyche.Monitor.attest m ~caller:os ~domain:h.Libtyche.Handle.domain ~nonce:"t") in
  (* Without the allowance, the OS-shared mailbox fails the topology... *)
  let strict = Result.get_ok (Verifier.Topology.declare ~nodes:[ node ] ~edges:[] ()) in
  (match Verifier.Topology.verify strict ~bindings:[ ("svc", att) ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "OS mailbox passed a strict topology");
  (* ...with it, the deployment is accepted. *)
  let lax =
    Result.get_ok
      (Verifier.Topology.declare ~nodes:[ node ] ~edges:[] ~allow_outside:[ os ] ())
  in
  match Verifier.Topology.verify lax ~bindings:[ ("svc", att) ] with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "allow_outside ignored: %s" (String.concat ";" msgs)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "edges"
    [ ( "monitor",
        [ Alcotest.test_case "split ownership" `Quick test_monitor_split_ownership;
          Alcotest.test_case "bad core arguments" `Quick test_monitor_bad_core_arguments;
          Alcotest.test_case "attest unknown parties" `Quick test_attest_unknown_parties;
          Alcotest.test_case "payload deterministic" `Quick
            test_attestation_payload_deterministic;
          Alcotest.test_case "unaligned grant refused" `Quick
            test_carve_unaligned_grant_refused ] );
      ( "construction",
        [ Alcotest.test_case "oversized monitor image" `Quick test_boot_image_too_large;
          Alcotest.test_case "machine validation" `Quick test_machine_validation;
          Alcotest.test_case "tpm pcr bounds" `Quick test_tpm_pcr_bounds ] );
      ( "composition",
        [ Alcotest.test_case "channel privacy decays" `Quick
            test_channel_loses_privacy_on_extra_share;
          Alcotest.test_case "session nonce mismatch" `Quick
            test_session_evidence_nonce_mismatch;
          Alcotest.test_case "topology allow_outside" `Quick test_topology_allow_outside ] );
      ( "wire",
        [ Alcotest.test_case "attestation roundtrip over network" `Quick
            test_attestation_wire_roundtrip;
          Alcotest.test_case "attestation tamper/truncation" `Quick
            test_attestation_wire_tamper;
          Alcotest.test_case "attestation batch envelope golden bytes" `Quick
            test_attestation_wire_golden;
          qt (prop_attestation_wire_roundtrip_random "single");
          qt (prop_attestation_wire_roundtrip_random "batched");
          QCheck_alcotest.to_alcotest prop_attestation_wire_garbage ] );
      ( "algebra",
        [ qt prop_rights_attenuation_reflexive_transitive;
          qt prop_revocation_strongest_join;
          qt prop_perm_subsumes_partial_order ] ) ]
