(* The serialized narrow API: wire-format round trips, total parsing,
   and monitor robustness under fuzzed call sequences. *)

open Testkit

let page = Hw.Addr.page_size
let range ~base ~len = Hw.Addr.Range.make ~base ~len

(* Generators *)

let gen_kind =
  QCheck.Gen.oneofl
    [ Tyche.Domain.Os; Tyche.Domain.Sandbox; Tyche.Domain.Enclave;
      Tyche.Domain.Confidential_vm; Tyche.Domain.Io_domain ]

let gen_rights =
  QCheck.Gen.oneofl
    [ Cap.Rights.full; Cap.Rights.rw; Cap.Rights.rx; Cap.Rights.read_only;
      Cap.Rights.exclusive_use ]

let gen_cleanup =
  QCheck.Gen.oneofl
    [ Cap.Revocation.Keep; Cap.Revocation.Zero; Cap.Revocation.Flush_cache;
      Cap.Revocation.Zero_and_flush ]

let gen_range =
  QCheck.Gen.(
    map2
      (fun b l -> range ~base:(b * page) ~len:((l + 1) * page))
      (0 -- 100) (0 -- 8))

let gen_call =
  QCheck.Gen.(
    oneof
      [ map2 (fun name kind -> Tyche.Api.Create_domain { name; kind })
          (string_size (0 -- 12)) gen_kind;
        map2 (fun domain entry -> Tyche.Api.Set_entry_point { domain; entry })
          (0 -- 8) (map (fun p -> p * page) (0 -- 100));
        map2 (fun domain flush -> Tyche.Api.Set_flush_policy { domain; flush }) (0 -- 8) bool;
        map2 (fun domain range -> Tyche.Api.Mark_measured { domain; range }) (0 -- 8) gen_range;
        map (fun domain -> Tyche.Api.Seal { domain }) (0 -- 8);
        map (fun domain -> Tyche.Api.Destroy { domain }) (0 -- 8);
        map (fun (cap, to_, rights, cleanup, sub) ->
            Tyche.Api.Share
              { cap; to_; rights; cleanup; subrange = (if to_ mod 2 = 0 then Some sub else None) })
          (tup5 (0 -- 60) (0 -- 8) gen_rights gen_cleanup gen_range);
        map (fun (cap, to_, rights, cleanup) -> Tyche.Api.Grant { cap; to_; rights; cleanup })
          (tup4 (0 -- 60) (0 -- 8) gen_rights gen_cleanup);
        map2 (fun cap at -> Tyche.Api.Split { cap; at = at * page }) (0 -- 60) (0 -- 100);
        map2 (fun cap subrange -> Tyche.Api.Carve { cap; subrange }) (0 -- 60) gen_range;
        map (fun cap -> Tyche.Api.Revoke { cap }) (0 -- 60);
        return Tyche.Api.Enumerate;
        map2 (fun domain nonce -> Tyche.Api.Attest { domain; nonce }) (0 -- 8)
          (string_size (0 -- 8));
        map (fun target -> Tyche.Api.Call { target }) (0 -- 8);
        return Tyche.Api.Return ])

let arb_call = QCheck.make ~print:(Format.asprintf "%a" Tyche.Api.pp_call) gen_call

(* Wire format *)

let prop_roundtrip =
  QCheck.Test.make ~name:"api: encode/decode roundtrip" ~count:500
    QCheck.(pair (int_bound 8) arb_call)
    (fun (caller, call) ->
      let r = Tyche.Api.issued caller call in
      Tyche.Api.decode (Tyche.Api.encode r) = Ok r)

let prop_decode_total =
  QCheck.Test.make ~name:"api: decode never raises on garbage" ~count:500
    QCheck.(string_of_size Gen.(0 -- 80))
    (fun junk ->
      match Tyche.Api.decode junk with Ok _ -> true | Error _ -> true)

let prop_decode_truncation =
  QCheck.Test.make ~name:"api: truncated encodings are rejected" ~count:200 arb_call
    (fun call ->
      let wire = Tyche.Api.encode (Tyche.Api.issued os call) in
      String.length wire <= 1
      ||
      let cut = String.sub wire 0 (String.length wire - 1) in
      match Tyche.Api.decode cut with Error _ -> true | Ok _ -> false)

let test_decode_trailing_garbage () =
  let wire = Tyche.Api.encode (Tyche.Api.issued os Tyche.Api.Enumerate) ^ "x" in
  match Tyche.Api.decode wire with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted"

(* Enum operands decode strictly: a reserved rights bit, or a kind or
   clean-up code with no meaning, is an error — never silently dropped or
   mapped onto some other value. Each case patches one code byte of a
   valid encoding: a share's rights (byte 25) and clean-up (byte 26)
   after its opcode, caller, cap and target, or a create's trailing
   kind. *)
let prop_strict_codes =
  QCheck.Test.make ~name:"api: reserved rights bits, unknown kind and cleanup codes rejected"
    ~count:300
    QCheck.(pair (int_bound 2) (int_bound 255))
    (fun (field, code) ->
      let encode call = Tyche.Api.encode (Tyche.Api.issued os call) in
      (* The field's byte is where the encodings of two calls differing
         only in that field first differ. *)
      let patched call other =
        let b = Bytes.of_string (encode call) and o = encode other in
        let rec at i = if Bytes.get b i <> o.[i] then i else at (i + 1) in
        Bytes.set b (at 0) (Char.chr code);
        Bytes.to_string b
      in
      let share rights cleanup =
        Tyche.Api.Share { cap = 7; to_ = 3; rights; cleanup; subrange = None }
      in
      let create kind = Tyche.Api.Create_domain { name = "d"; kind } in
      let base = share Cap.Rights.rw Cap.Revocation.Zero in
      let wire, meaningful =
        match field with
        | 0 -> (patched base (share Cap.Rights.read_only Cap.Revocation.Zero), code < 32)
        | 1 -> (patched base (share Cap.Rights.rw Cap.Revocation.Keep), code < 4)
        | _ -> (patched (create Tyche.Domain.Enclave) (create Tyche.Domain.Sandbox), code < 6)
      in
      match Tyche.Api.decode wire with Ok _ -> meaningful | Error _ -> not meaningful)

(* End-to-end dispatch over the wire *)

let test_dispatch_over_wire () =
  let w = boot_x86 () in
  let m = w.monitor in
  let send caller call =
    let wire = Tyche.Api.encode (Tyche.Api.issued caller call) in
    match Tyche.Api.decode wire with
    | Error e -> Alcotest.failf "decode failed: %s" e
    | Ok (Tyche.Api.Issued { call; _ }) -> Tyche.Api.dispatch m ~caller ~core:0 call
    | Ok (Tyche.Api.Evicted _) -> Alcotest.fail "a request decoded as an eviction"
  in
  (* A full enclave lifecycle driven purely through the byte ABI. *)
  let d =
    match send os (Tyche.Api.Create_domain { name = "wire"; kind = Tyche.Domain.Enclave }) with
    | Ok (Tyche.Api.R_domain d) -> d
    | r -> Alcotest.failf "create: %s" (Format.asprintf "%a" Tyche.Api.pp_response r)
  in
  let big = os_memory_cap w in
  let piece =
    match send os (Tyche.Api.Carve { cap = big; subrange = range ~base:0x40000 ~len:page }) with
    | Ok (Tyche.Api.R_cap c) -> c
    | r -> Alcotest.failf "carve: %s" (Format.asprintf "%a" Tyche.Api.pp_response r)
  in
  (match
     send os
       (Tyche.Api.Grant
          { cap = piece; to_ = d; rights = Cap.Rights.full; cleanup = Cap.Revocation.Zero })
   with
  | Ok (Tyche.Api.R_cap _) -> ()
  | r -> Alcotest.failf "grant: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  (match
     send os
       (Tyche.Api.Share
          { cap = os_core_cap w 0; to_ = d; rights = Cap.Rights.exclusive_use;
            cleanup = Cap.Revocation.Keep; subrange = None })
   with
  | Ok _ -> ()
  | r -> Alcotest.failf "share core: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  (match send os (Tyche.Api.Set_entry_point { domain = d; entry = 0x40000 }) with
  | Ok Tyche.Api.R_unit -> ()
  | r -> Alcotest.failf "entry: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  (match send os (Tyche.Api.Seal { domain = d }) with
  | Ok Tyche.Api.R_unit -> ()
  | r -> Alcotest.failf "seal: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  (match send os (Tyche.Api.Call { target = d }) with
  | Ok (Tyche.Api.R_path _) -> ()
  | r -> Alcotest.failf "call: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  (* The enclave (now current) enumerates its caps and returns. *)
  (match send d Tyche.Api.Enumerate with
  | Ok (Tyche.Api.R_caps caps) ->
    Alcotest.(check int) "enclave holds memory + core" 2 (List.length caps)
  | r -> Alcotest.failf "enumerate: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  (match send d Tyche.Api.Return with
  | Ok (Tyche.Api.R_path _) -> ()
  | r -> Alcotest.failf "return: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  (* Attest over the wire. *)
  (match send os (Tyche.Api.Attest { domain = d; nonce = "wire" }) with
  | Ok (Tyche.Api.R_attestation att) ->
    Alcotest.(check bool) "verifies" true
      (Tyche.Attestation.verify ~monitor_root:(Tyche.Monitor.attestation_root m) att)
  | r -> Alcotest.failf "attest: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  check_no_violations m

let test_dispatch_enforces_core_identity () =
  let w = boot_x86 () in
  (* A caller that is not current on the core cannot transition it. *)
  match Tyche.Api.dispatch w.monitor ~caller:55 ~core:0 (Tyche.Api.Call { target = os }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-current caller transitioned the core"

(* Fuzz: random call sequences never crash the monitor, and the system
   invariants hold afterwards. Callers are drawn at random (often
   unauthorized), targets frequently dangle. *)

let fuzz_property boot_world calls =
  let m = (boot_world ()).monitor in
  List.iter
    (fun (caller, call) -> ignore (Tyche.Api.dispatch m ~caller ~core:0 call))
    calls;
  (* Drain any transitions the fuzz pushed so teardown-sensitive
     invariants see a quiet machine. *)
  let rec unwind () =
    match Tyche.Monitor.ret m ~core:0 with Ok _ -> unwind () | Error _ -> ()
  in
  unwind ();
  Tyche.Invariants.check_tree m = []
  && Tyche.Invariants.check_refcounts m = []
  && Tyche.Invariants.check_hardware_matches_tree m = []

let arb_calls = QCheck.(make Gen.(list_size (0 -- 80) (pair (0 -- 6) gen_call)))

let prop_monitor_fuzz =
  QCheck.Test.make ~name:"api: fuzzed call sequences keep invariants (x86)" ~count:50
    arb_calls
    (fuzz_property (fun () -> boot_x86 ~mem_size:(8 * 1024 * 1024) ()))

let prop_monitor_fuzz_riscv =
  QCheck.Test.make ~name:"api: fuzzed call sequences keep invariants (riscv)" ~count:50
    arb_calls
    (fuzz_property (fun () -> boot_riscv ~mem_size:(8 * 1024 * 1024) ()))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "api"
    [ ( "wire",
        [ qt prop_roundtrip;
          qt prop_decode_total;
          qt prop_decode_truncation;
          qt prop_strict_codes;
          Alcotest.test_case "trailing garbage" `Quick test_decode_trailing_garbage ] );
      ( "dispatch",
        [ Alcotest.test_case "enclave lifecycle over the wire" `Quick test_dispatch_over_wire;
          Alcotest.test_case "core identity enforced" `Quick
            test_dispatch_enforces_core_identity ] );
      ("fuzz", [ qt prop_monitor_fuzz; qt prop_monitor_fuzz_riscv ]) ]
