(* Unit and property tests for the from-scratch crypto substrate. *)

open Crypto

let hex = Sha256.to_hex

let check_hex msg expected digest = Alcotest.(check string) msg expected (hex digest)

(* NIST / well-known SHA-256 vectors. *)
let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.string "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.string "abc");
  check_hex "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.string (String.make 1_000_000 'a'))

let test_sha256_block_boundaries () =
  (* Lengths around the 64-byte block and 56-byte padding boundary. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let whole = Sha256.string s in
      let ctx = Sha256.Ctx.create () in
      String.iter (fun c -> Sha256.Ctx.feed_string ctx (String.make 1 c)) s;
      Alcotest.(check bool)
        (Printf.sprintf "len %d: bytewise == one-shot" n)
        true
        (Sha256.equal whole (Sha256.Ctx.finalize ctx)))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 1000 ]

let test_sha256_hex_roundtrip () =
  let d = Sha256.string "roundtrip" in
  Alcotest.(check bool) "of_raw . to_raw" true
    (Sha256.equal d (Sha256.of_raw (Sha256.to_raw d)))

let test_sha256_bad_parse () =
  Alcotest.check_raises "short raw" (Invalid_argument "Sha256.of_raw: need 32 bytes")
    (fun () -> ignore (Sha256.of_raw "short"))

let test_hmac_rfc4231 () =
  (* RFC 4231 test cases 1, 2 and 7. *)
  let case1 =
    Hmac.mac ~key:(String.make 20 '\x0b') "Hi There"
  in
  check_hex "case 1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" case1;
  let case2 = Hmac.mac ~key:"Jefe" "what do ya want for nothing?" in
  check_hex "case 2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" case2;
  let case7 =
    Hmac.mac ~key:(String.make 131 '\xaa')
      "This is a test using a larger than block-size key and a larger than \
       block-size data. The key needs to be hashed before being used by the \
       HMAC algorithm."
  in
  check_hex "case 7 (long key)"
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" case7

let test_hmac_verify () =
  let tag = Hmac.mac ~key:"k" "msg" in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key:"k" "msg" tag);
  Alcotest.(check bool) "rejects wrong msg" false (Hmac.verify ~key:"k" "msh" tag);
  Alcotest.(check bool) "rejects wrong key" false (Hmac.verify ~key:"j" "msg" tag)

let test_hmac_derive () =
  let a = Hmac.derive ~key:"master" ~label:"a" in
  let b = Hmac.derive ~key:"master" ~label:"b" in
  Alcotest.(check int) "32 bytes" 32 (String.length a);
  Alcotest.(check bool) "labels separate" false (String.equal a b);
  Alcotest.(check string) "deterministic" a (Hmac.derive ~key:"master" ~label:"a")

let test_rng_determinism () =
  let a = Rng.create ~seed:7L and b = Rng.create ~seed:7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done;
  let c = Rng.create ~seed:8L in
  Alcotest.(check bool) "different seed diverges" false
    (Rng.next_int64 (Rng.create ~seed:7L) = Rng.next_int64 c)

let test_rng_bounds () =
  let rng = Rng.create ~seed:3L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_split () =
  let parent = Rng.create ~seed:9L in
  let child = Rng.split parent in
  Alcotest.(check bool) "child independent" false
    (Rng.next_int64 child = Rng.next_int64 parent)

let test_merkle_basic () =
  let leaves = List.init 7 (fun i -> Sha256.string (string_of_int i)) in
  let t = Merkle.build leaves in
  Alcotest.(check int) "leaf count" 7 (Merkle.leaf_count t);
  List.iteri
    (fun i leaf ->
      let proof = Merkle.prove t i in
      Alcotest.(check bool) (Printf.sprintf "leaf %d verifies" i) true
        (Merkle.verify ~root:(Merkle.root t) ~leaf proof))
    leaves

let test_merkle_single_leaf () =
  let leaf = Sha256.string "only" in
  let t = Merkle.build [ leaf ] in
  Alcotest.(check bool) "single leaf" true
    (Merkle.verify ~root:(Merkle.root t) ~leaf (Merkle.prove t 0))

let test_merkle_tamper () =
  let leaves = List.init 4 (fun i -> Sha256.string (string_of_int i)) in
  let t = Merkle.build leaves in
  let proof = Merkle.prove t 2 in
  Alcotest.(check bool) "wrong leaf rejected" false
    (Merkle.verify ~root:(Merkle.root t) ~leaf:(Sha256.string "evil") proof);
  let wrong_index = { proof with Merkle.leaf_index = 1 } in
  Alcotest.(check bool) "wrong index rejected" false
    (Merkle.verify ~root:(Merkle.root t) ~leaf:(Sha256.string "2") wrong_index)

let test_merkle_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Merkle.build: empty leaf list")
    (fun () -> ignore (Merkle.build []));
  let t = Merkle.build [ Sha256.string "x" ] in
  Alcotest.check_raises "index out of range"
    (Invalid_argument "Merkle.prove: index out of range") (fun () ->
      ignore (Merkle.prove t 1))

(* A fresh one-time key pair: the next seed and its public key. *)
let ots_key rng =
  let sk = Ots.draw rng in
  (sk, Ots.public_key sk)

(* Expand a one-time key into a fresh link buffer and sign with it. *)
let ots_sign sk msg =
  let links = Ots.links () in
  ignore (Ots.expand links sk);
  Ots.sign links msg

let test_ots_sign_verify () =
  let rng = Rng.create ~seed:11L in
  let sk, pk = ots_key rng in
  let links = Ots.links () in
  Alcotest.(check string) "expand agrees with public_key" (Ots.public_key_to_string pk)
    (Ots.public_key_to_string (Ots.expand links sk));
  let msg = Sha256.string "attestation payload" in
  let sg = Ots.sign links msg in
  Alcotest.(check bool) "verifies" true (Ots.verify pk msg sg);
  Alcotest.(check bool) "wrong message rejected" false
    (Ots.verify pk (Sha256.string "other") sg)

let test_ots_serialization () =
  let rng = Rng.create ~seed:12L in
  let sk, pk = ots_key rng in
  let msg = Sha256.string "m" in
  let sg = ots_sign sk msg in
  let pk' = Ots.public_key_of_string (Ots.public_key_to_string pk) in
  let sg' = Ots.signature_of_string (Ots.signature_to_string sg) in
  Alcotest.(check bool) "roundtrip verifies" true (Ots.verify pk' msg sg');
  Alcotest.check_raises "bad length"
    (Invalid_argument "Ots: serialized key/signature must be 67*32 bytes") (fun () ->
      ignore (Ots.public_key_of_string "short"))

let test_ots_cross_key () =
  let rng = Rng.create ~seed:13L in
  let sk1, _pk1 = ots_key rng in
  let _sk2, pk2 = ots_key rng in
  let msg = Sha256.string "m" in
  Alcotest.(check bool) "foreign key rejected" false (Ots.verify pk2 msg (ots_sign sk1 msg))

let test_signature_many () =
  let rng = Rng.create ~seed:14L in
  let signer = Signature.create ~height:3 rng in
  let root = Signature.public_root signer in
  Alcotest.(check int) "capacity" 8 (Signature.remaining signer);
  for i = 1 to 8 do
    let msg = Printf.sprintf "message %d" i in
    let sg = Signature.sign signer msg in
    Alcotest.(check bool) (Printf.sprintf "sig %d verifies" i) true
      (Signature.verify ~root msg sg);
    Alcotest.(check bool) (Printf.sprintf "sig %d wrong msg" i) false
      (Signature.verify ~root "tampered" sg)
  done;
  Alcotest.(check int) "exhausted" 0 (Signature.remaining signer);
  Alcotest.check_raises "exhaustion" (Failure "Signature.sign: signer exhausted")
    (fun () -> ignore (Signature.sign signer "one too many"))

let test_signature_serialization () =
  let rng = Rng.create ~seed:15L in
  let signer = Signature.create ~height:2 rng in
  let root = Signature.public_root signer in
  let sg = Signature.sign signer "wire" in
  let sg' = Signature.signature_of_string (Signature.signature_to_string sg) in
  Alcotest.(check bool) "roundtrip verifies" true (Signature.verify ~root "wire" sg');
  Alcotest.check_raises "truncated"
    (Invalid_argument "Signature.signature_of_string: malformed") (fun () ->
      ignore
        (Signature.signature_of_string
           (String.sub (Signature.signature_to_string sg) 0 40)))

let test_signature_cross_signer () =
  let rng = Rng.create ~seed:16L in
  let s1 = Signature.create ~height:2 rng in
  let s2 = Signature.create ~height:2 rng in
  let sg = Signature.sign s1 "m" in
  Alcotest.(check bool) "other root rejects" false
    (Signature.verify ~root:(Signature.public_root s2) "m" sg)

(* Fast core vs executable specification, and the new one-shot APIs. *)

let test_sha256_spec_vectors () =
  check_hex "spec: empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.Spec.string "");
  check_hex "spec: abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.Spec.string "abc")

let test_sha256_digest_strings () =
  Alcotest.(check bool) "multi-buffer == concatenated" true
    (Sha256.equal
       (Sha256.digest_strings [ "ab"; ""; "cdef"; "g" ])
       (Sha256.string "abcdefg"))

let test_sha256_ctx_reset () =
  let ctx = Sha256.Ctx.create () in
  Sha256.Ctx.feed_string ctx (String.make 100 'z');
  ignore (Sha256.Ctx.finalize ctx);
  Sha256.Ctx.reset ctx;
  Sha256.Ctx.feed_string ctx "abc";
  Alcotest.(check bool) "reset context == fresh context" true
    (Sha256.equal (Sha256.Ctx.finalize ctx) (Sha256.string "abc"))

let test_sha256_hash32_sub () =
  let c = Sha256.chain_scratch () in
  let d = Sha256.string "seed" in
  let buf = Bytes.of_string (Sha256.to_raw d) in
  let step () = Sha256.hash32_sub c ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 in
  step ();
  Alcotest.(check string) "one step, in place"
    (Sha256.to_hex (Sha256.string (Sha256.to_raw d)))
    (Sha256.to_hex (Sha256.of_raw (Bytes.to_string buf)));
  step ();
  Alcotest.(check string) "two steps"
    (Sha256.to_hex (Sha256.string (Sha256.to_raw (Sha256.string (Sha256.to_raw d)))))
    (Sha256.to_hex (Sha256.of_raw (Bytes.to_string buf)));
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Sha256.hash32_sub: need two 32-byte slices") (fun () ->
      Sha256.hash32_sub c ~src:(Bytes.create 31) ~src_off:0 ~dst:(Bytes.create 32)
        ~dst_off:0)

(* Two OCaml domains hash at once through every one-shot entry point
   and the chain kernel; each digest must match the specification twin.
   Shared scratch buffers would interleave the two hashers' blocks. *)
let test_sha256_domain_safe () =
  let inputs =
    List.init 48 (fun i -> String.init (i * 7) (fun j -> Char.chr ((i + j) land 0xff)))
  in
  let parts s = [ s; "|"; String.sub s 0 (String.length s / 2) ] in
  let cases =
    Array.of_list
      (List.map
         (fun s ->
           let raw = Sha256.to_raw (Sha256.Spec.string s) in
           ( s,
             Sha256.Spec.string s,
             Sha256.Spec.string (String.concat "" (parts s)),
             raw,
             Sha256.to_raw (Sha256.Spec.string raw) ))
         inputs)
  in
  let hasher offset () =
    let bad = ref 0 in
    let chain = Sha256.chain_scratch () in
    let buf = Bytes.create 32 in
    for round = 0 to 400 do
      Array.iteri
        (fun i _ ->
          let s, d, dp, raw, chained = cases.((i + offset + round) mod Array.length cases) in
          if not (Sha256.equal (Sha256.string s) d) then incr bad;
          if not (Sha256.equal (Sha256.digest_strings (parts s)) dp) then incr bad;
          Bytes.blit_string raw 0 buf 0 32;
          Sha256.hash32_sub chain ~src:buf ~src_off:0 ~dst:buf ~dst_off:0;
          if Bytes.to_string buf <> chained then incr bad)
        cases
    done;
    !bad
  in
  (* Both hashers finish before any check, so a raise in one cannot
     leave the other running into later tests. *)
  let run offset () =
    match hasher offset () with n -> Ok n | exception e -> Error (Printexc.to_string e)
  in
  let other = Domain.spawn (run 17) in
  let here = run 0 () in
  let there = Domain.join other in
  let mismatches = Alcotest.(result int string) in
  Alcotest.check mismatches "main domain: every digest matches the spec" (Ok 0) here;
  Alcotest.check mismatches "spawned domain: every digest matches the spec" (Ok 0) there

(* The two compression kernels, state for state: random 32-byte states
   and random blocks at every offset of a 128-byte buffer. *)
let prop_kernels_agree =
  QCheck.Test.make ~name:"sha256: hardware kernel equals OCaml kernel" ~count:500
    QCheck.(
      triple (string_of_size (Gen.return 32)) (string_of_size (Gen.return 128)) (int_range 0 63))
    (fun (state, buf, off) ->
      let run k =
        let st = Bytes.of_string state in
        Sha256.Kernel.compress k ~state:st ~block:(Bytes.of_string buf) ~off;
        Bytes.to_string st
      in
      run Sha256.Kernel.Hardware = run Sha256.Kernel.Ocaml)

let test_kernel_differential () =
  if Sha256.Kernel.live <> Sha256.Kernel.Hardware then begin
    print_endline "skipped: this CPU has no SHA extensions; only the OCaml kernel runs";
    Alcotest.skip ()
  end;
  QCheck.Test.check_exn prop_kernels_agree

(* An offset into C that nobody checked would read past the buffer. *)
let test_kernel_bounds () =
  let bad = Invalid_argument "Sha256.Kernel.compress: need a 32-byte state and a 64-byte block" in
  List.iter
    (fun k ->
      List.iter
        (fun (state, off) ->
          Alcotest.check_raises "rejected" bad (fun () ->
              Sha256.Kernel.compress k ~state ~block:(Bytes.create 128) ~off))
        [ (Bytes.create 32, 65); (Bytes.create 32, -1); (Bytes.create 31, 0) ])
    [ Sha256.Kernel.Ocaml; Sha256.Kernel.live ]

(* On Linux x86-64 the hardware kernel runs exactly when /proc/cpuinfo
   lists the extensions the probe asks CPUID for. A probe reading the
   wrong bit would fall back silently: every digest stays right and
   only the speed is gone. *)
let test_kernel_selection () =
  let flags =
    match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
    | exception Sys_error _ -> None
    | text ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | key :: value :: _ when String.trim key = "flags" ->
            Some (String.split_on_char ' ' value)
          | _ -> None)
        (String.split_on_char '\n' text)
  in
  match flags with
  | Some flags when Sys.word_size = 64 ->
    let has f = List.mem f flags in
    Alcotest.(check bool) "hardware kernel iff cpuinfo lists sha_ni, ssse3 and sse4_1"
      (has "sha_ni" && has "ssse3" && has "sse4_1")
      (Sha256.Kernel.live = Sha256.Kernel.Hardware)
  | _ ->
    print_endline "skipped: not Linux on x86-64 (no flags line in /proc/cpuinfo)";
    Alcotest.skip ()

let test_ots_verify_total () =
  let rng = Rng.create ~seed:21L in
  let sk, pk = ots_key rng in
  let msg = Sha256.string "total" in
  let sg = ots_sign sk msg in
  let wrong_len = Array.sub sg 0 10 in
  Alcotest.(check bool) "wrong chain count -> false" false (Ots.verify pk msg wrong_len);
  let bad_value = Array.copy sg in
  bad_value.(3) <- "not a digest";
  Alcotest.(check bool) "non-32-byte chain value -> false" false
    (Ots.verify pk msg bad_value);
  bad_value.(3) <- "";
  Alcotest.(check bool) "empty chain value -> false" false (Ots.verify pk msg bad_value);
  Alcotest.(check bool) "intact signature still verifies" true (Ots.verify pk msg sg)

let test_ots_sign_spec_identity () =
  let rng = Rng.create ~seed:22L in
  let sk, pk = ots_key rng in
  let msg = Sha256.string "spec twin" in
  let fast = ots_sign sk msg and spec = Ots.sign_spec sk msg in
  Alcotest.(check string) "byte-identical signatures"
    (Ots.signature_to_string fast) (Ots.signature_to_string spec);
  Alcotest.(check bool) "spec signature verifies" true (Ots.verify pk msg spec)

(* A pooled handle's leaf is the digest of the public key its seed
   expands to, and the expanded key signs. *)
let check_handle what (sk, leaf) =
  let links = Ots.links () in
  let pk = Ots.expand links sk in
  check_hex (what ^ ": leaf is the expanded key's digest") (hex (Ots.public_key_digest pk)) leaf;
  let msg = Sha256.string what in
  Alcotest.(check bool) (what ^ ": expanded key signs") true
    (Ots.verify pk msg (Ots.sign links msg))

let test_keypool_basic () =
  let rng = Rng.create ~seed:23L in
  let pool = Keypool.create ~low_water:2 ~target:4 rng in
  Alcotest.(check int) "prefilled" 4 (Keypool.size pool);
  check_handle "pooled" (Keypool.take pool);
  Alcotest.(check int) "one taken" 3 (Keypool.size pool);
  Keypool.replenish pool;
  Alcotest.(check int) "above low water: no refill" 3 (Keypool.size pool);
  ignore (Keypool.take pool);
  ignore (Keypool.take pool);
  Keypool.replenish pool;
  Alcotest.(check int) "below low water: refilled to target" 4 (Keypool.size pool);
  Alcotest.(check (pair int int)) "all takes were hits" (3, 0) (Keypool.stats pool)

let test_keypool_miss () =
  let rng = Rng.create ~seed:24L in
  let pool = Keypool.create ~target:0 rng in
  check_handle "on-demand" (Keypool.take pool);
  Alcotest.(check (pair int int)) "recorded as miss" (0, 1) (Keypool.stats pool)

let test_keypool_signer () =
  let rng = Rng.create ~seed:25L in
  let pool = Keypool.create ~low_water:4 ~target:8 rng in
  let signer = Signature.create ~height:3 ~pool rng in
  (* create drew all 8 keys; the pool is empty and below low water. *)
  Alcotest.(check int) "drained by create" 0 (Keypool.size pool);
  let root = Signature.public_root signer in
  (* The pool changes when keys are generated, never which: an unpooled
     signer drawn from an equally seeded Rng commits to the same keys. *)
  check_hex "same root as an unpooled signer" (hex root)
    (Signature.public_root (Signature.create ~height:3 (Rng.create ~seed:25L)));
  let sg = Signature.sign signer "pooled signer" in
  Alcotest.(check bool) "verifies" true (Signature.verify ~root "pooled signer" sg);
  (* The first sign eagerly replenished the stock back to target. *)
  Alcotest.(check int) "sign replenished" 8 (Keypool.size pool)

(* The batch is [n] sequential [generate] calls, element for element,
   and leaves the Rng where they leave it, however many domains derive
   the leaves. [n] covers empty, fewer keys than hardware threads,
   uneven slices and a signer-sized run either side of a power of two. *)
let batch_sizes = [ 0; 1; 2; 3; 7; 64; 65; 1000 ]

(* [handles] must be the ones sequential [generate] calls draw from an
   Rng seeded [seed]; returns that Rng, advanced past them. *)
let check_sequential what ~seed handles =
  let rng = Rng.create ~seed in
  Array.iteri
    (fun i (sk, leaf) ->
      let sk', leaf' = Keypool.generate rng in
      if sk <> sk' || not (Sha256.equal leaf leaf') then
        Alcotest.failf "%s: handle %d differs from sequential generate" what i)
    handles;
  rng

let check_batch_sequential what ~seed n =
  let what = Printf.sprintf "%s n=%d" what n in
  let rng = Rng.create ~seed in
  let batch = Keypool.generate_batch rng n in
  Alcotest.(check int) (what ^ ": length") n (Array.length batch);
  let seq_rng = check_sequential what ~seed batch in
  Alcotest.(check int64) (what ^ ": next draw") (Rng.next_int64 seq_rng) (Rng.next_int64 rng)

let test_keypool_batch_sequential () =
  List.iter (fun n -> check_batch_sequential "caller" ~seed:(Int64.of_int (0x70 + n)) n) batch_sizes

let test_keypool_batch_in_domains () =
  (* From inside a spawned domain, whose helpers are then nested. *)
  Domain.join
    (Domain.spawn (fun () ->
         List.iter (fun n -> check_batch_sequential "spawned" ~seed:0x71L n) [ 3; 65 ]));
  (* Two pools filled at once from two domains: each stocks what
     sequential draws from its own Rng give. *)
  let fill seed () =
    let pool = Keypool.create ~low_water:0 ~target:64 (Rng.create ~seed) in
    Array.init 64 (fun _ -> Keypool.take pool)
  in
  let a = Domain.spawn (fill 0x72L) and b = Domain.spawn (fill 0x73L) in
  List.iter
    (fun (seed, handles) ->
      ignore (check_sequential (Printf.sprintf "pool seed %Ld" seed) ~seed handles))
    [ (0x72L, Domain.join a); (0x73L, Domain.join b) ]

(* At the runtime's domain limit no helper can start: the caller
   derives every slice, and the handles are still the sequential ones.
   Domains parked on a held mutex fill the limit (128 live domains on a
   64-bit OCaml 5.1); a batch that spawned unconditionally raised
   [Failure "failed to allocate domain"] here. *)
let test_keypool_batch_at_domain_limit () =
  let gate = Mutex.create () in
  Mutex.lock gate;
  let rec park parked count =
    if count = 128 then parked
    else
      match Domain.spawn (fun () -> Mutex.lock gate; Mutex.unlock gate) with
      | d -> park (d :: parked) (count + 1)
      | exception Failure _ -> parked
  in
  let parked = park [] 0 in
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock gate;
      List.iter Domain.join parked)
    (fun () ->
      Alcotest.(check bool) "domain limit reached" true (List.length parked < 128);
      check_batch_sequential "at the domain limit" ~seed:0x74L 3)

(* Key bytes pinned to values computed before key generation ran on
   several domains: a height-6 unpooled signer's root and the last leaf
   of a 64-key pool (the slice a spawned domain derives). *)
let test_keygen_pinned () =
  check_hex "height-6 unpooled signer root"
    "7167a6746c10adf2b1f49668d1f2fbf19e60bb37b218f857b947f55134419ca3"
    (Signature.public_root (Signature.create ~height:6 (Rng.create ~seed:0x60L)));
  let pool = Keypool.create ~low_water:0 ~target:64 (Rng.create ~seed:0x61L) in
  let handles = List.init 64 (fun _ -> Keypool.take pool) in
  check_hex "64-key pool: last stock leaf"
    "3fb16ccb80ca5b141214d2db29582c732c9cddd8db004633521c4425d33eec9a"
    (snd (List.nth handles 63));
  Alcotest.(check (pair int int)) "all from stock" (64, 0) (Keypool.stats pool)

let test_signature_sign_spec_identity () =
  (* Every key, not just the first: [sign] reuses one link buffer, so a
     key left stale in it would show at the second index. [sign_spec]
     derives the chain secrets with Sha256.Spec, checking the
     derivation too. *)
  let s1 = Signature.create ~height:3 (Rng.create ~seed:26L) in
  let s2 = Signature.create ~height:3 (Rng.create ~seed:26L) in
  let root = Signature.public_root s1 in
  for i = 0 to 7 do
    let msg = Printf.sprintf "twin message %d" i in
    let fast = Signature.sign s1 msg and spec = Signature.sign_spec s2 msg in
    Alcotest.(check string) (Printf.sprintf "key %d: byte-identical signatures" i)
      (Signature.signature_to_string fast) (Signature.signature_to_string spec);
    Alcotest.(check bool) (Printf.sprintf "key %d: both verify under one root" i) true
      (Signature.verify ~root msg fast && Signature.verify ~root msg spec)
  done

(* The signer's footprint, counted rather than timed: a seed per key,
   the Merkle tree and one link buffer, where expanded keys took 34 KiB
   each (38 MB at height 10). *)
let test_signer_footprint () =
  let kib v = Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8) / 1024 in
  let pool = Keypool.create ~low_water:0 ~target:1024 (Rng.create ~seed:27L) in
  let pool_kib = kib pool in
  Alcotest.(check bool) (Printf.sprintf "1,024-key pool: %d KiB <= 256" pool_kib) true
    (pool_kib <= 256);
  let signer = Signature.create ~height:10 ~pool (Rng.create ~seed:27L) in
  Alcotest.(check bool) (Printf.sprintf "height-10 signer: %d KiB <= 512" (kib signer)) true
    (kib signer <= 512)

(* Property tests *)

let prop_sha256_fast_equals_spec =
  QCheck.Test.make ~name:"sha256: fast core equals Int32 specification" ~count:200
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun s -> Sha256.equal (Sha256.string s) (Sha256.Spec.string s))

let prop_sha256_chunking =
  QCheck.Test.make ~name:"sha256: arbitrary chunking equals one-shot" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 500)) (list_of_size Gen.(0 -- 10) small_nat))
    (fun (s, cuts) ->
      let ctx = Sha256.Ctx.create () in
      let rec feed s cuts =
        match cuts with
        | [] -> Sha256.Ctx.feed_string ctx s
        | c :: rest ->
          let c = min c (String.length s) in
          Sha256.Ctx.feed_string ctx (String.sub s 0 c);
          feed (String.sub s c (String.length s - c)) rest
      in
      feed s cuts;
      Sha256.equal (Sha256.Ctx.finalize ctx) (Sha256.string s))

let prop_merkle_all_leaves =
  QCheck.Test.make ~name:"merkle: every leaf of any tree verifies" ~count:50
    QCheck.(int_range 1 64)
    (fun n ->
      let leaves = List.init n (fun i -> Sha256.string (string_of_int i)) in
      let t = Merkle.build leaves in
      List.for_all
        (fun i ->
          Merkle.verify ~root:(Merkle.root t)
            ~leaf:(List.nth leaves i) (Merkle.prove t i))
        (List.init n Fun.id))

let prop_merkle_distinct_roots =
  QCheck.Test.make ~name:"merkle: changing one leaf changes the root" ~count:50
    QCheck.(pair (int_range 1 32) small_nat)
    (fun (n, k) ->
      let leaves = List.init n (fun i -> Sha256.string (string_of_int i)) in
      let k = k mod n in
      let leaves' =
        List.mapi (fun i l -> if i = k then Sha256.string "mutated" else l) leaves
      in
      not (Sha256.equal (Merkle.root (Merkle.build leaves)) (Merkle.root (Merkle.build leaves'))))

let prop_hmac_key_separation =
  QCheck.Test.make ~name:"hmac: distinct keys give distinct tags" ~count:100
    QCheck.(pair (string_of_size Gen.(1 -- 50)) (string_of_size Gen.(0 -- 100)))
    (fun (key, msg) ->
      not (Sha256.equal (Hmac.mac ~key msg) (Hmac.mac ~key:(key ^ "x") msg)))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "NIST vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "block boundaries" `Quick test_sha256_block_boundaries;
          Alcotest.test_case "hex roundtrip" `Quick test_sha256_hex_roundtrip;
          Alcotest.test_case "bad parse" `Quick test_sha256_bad_parse;
          Alcotest.test_case "spec vectors" `Quick test_sha256_spec_vectors;
          Alcotest.test_case "digest_strings" `Quick test_sha256_digest_strings;
          Alcotest.test_case "ctx reset" `Quick test_sha256_ctx_reset;
          Alcotest.test_case "hash32_sub" `Quick test_sha256_hash32_sub;
          Alcotest.test_case "two domains hash at once" `Quick test_sha256_domain_safe;
          Alcotest.test_case "kernel differential" `Quick test_kernel_differential;
          Alcotest.test_case "kernel bounds" `Quick test_kernel_bounds;
          Alcotest.test_case "kernel selection" `Quick test_kernel_selection;
          qt prop_sha256_fast_equals_spec;
          qt prop_sha256_chunking ] );
      ( "hmac",
        [ Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "derive" `Quick test_hmac_derive;
          qt prop_hmac_key_separation ] );
      ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split ] );
      ( "merkle",
        [ Alcotest.test_case "basic proofs" `Quick test_merkle_basic;
          Alcotest.test_case "single leaf" `Quick test_merkle_single_leaf;
          Alcotest.test_case "tamper rejected" `Quick test_merkle_tamper;
          Alcotest.test_case "errors" `Quick test_merkle_errors;
          qt prop_merkle_all_leaves;
          qt prop_merkle_distinct_roots ] );
      ( "ots",
        [ Alcotest.test_case "sign/verify" `Quick test_ots_sign_verify;
          Alcotest.test_case "serialization" `Quick test_ots_serialization;
          Alcotest.test_case "cross key" `Quick test_ots_cross_key;
          Alcotest.test_case "verify total on malformed" `Quick test_ots_verify_total;
          Alcotest.test_case "sign_spec identity" `Quick test_ots_sign_spec_identity ] );
      ( "keypool",
        [ Alcotest.test_case "prefill/take/replenish" `Quick test_keypool_basic;
          Alcotest.test_case "miss fallback" `Quick test_keypool_miss;
          Alcotest.test_case "signer integration" `Quick test_keypool_signer;
          Alcotest.test_case "batch equals sequential" `Quick test_keypool_batch_sequential;
          Alcotest.test_case "batch from spawned domains" `Quick test_keypool_batch_in_domains;
          Alcotest.test_case "pinned key bytes" `Quick test_keygen_pinned;
          Alcotest.test_case "batch at the domain limit" `Quick
            test_keypool_batch_at_domain_limit ] );
      ( "signature",
        [ Alcotest.test_case "many-time + exhaustion" `Quick test_signature_many;
          Alcotest.test_case "serialization" `Quick test_signature_serialization;
          Alcotest.test_case "cross signer" `Quick test_signature_cross_signer;
          Alcotest.test_case "sign_spec identity" `Quick test_signature_sign_spec_identity;
          Alcotest.test_case "footprint" `Quick test_signer_footprint ] ) ]
