(* Shared fixtures for the test suites: booted machines on both
   backends, a tiny enclave image, and result helpers. *)

let ( let* ) = Result.bind
let _ = ( let* )

type world = {
  machine : Hw.Machine.t;
  tpm : Rot.Tpm.t;
  rng : Crypto.Rng.t;
  boot_report : Rot.Boot.report;
  backend : Tyche.Backend_intf.t;
  monitor : Tyche.Monitor.t;
}

let firmware = "firmware-v1"
let loader_blob = "loader-v1"
let monitor_image = "tyche-monitor-image-v1"

let boot_x86 ?(seed = 0x71L) ?(cores = 4) ?(mem_size = 16 * 1024 * 1024) ?(devices = []) ?tlb_strategy
    ?signer_height () =
  let machine = Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores ~mem_size () in
  List.iter (Hw.Machine.attach_device machine) devices;
  let rng = Crypto.Rng.create ~seed in
  let tpm = Rot.Tpm.create rng in
  let boot_report =
    Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image
  in
  let backend = Backend_x86.create machine ?tlb_strategy () in
  let monitor =
    Tyche.Monitor.boot ?signer_height machine ~backend ~tpm ~rng
      ~monitor_range:boot_report.Rot.Boot.monitor_range
  in
  { machine; tpm; rng; boot_report; backend; monitor }

let boot_riscv ?(seed = 0x51L) ?(cores = 2) ?(mem_size = 16 * 1024 * 1024) ?(devices = [])
    ?alloc_strategy () =
  let machine = Hw.Machine.create ~arch:Hw.Cpu.Riscv64 ~cores ~mem_size () in
  List.iter (Hw.Machine.attach_device machine) devices;
  let rng = Crypto.Rng.create ~seed in
  let tpm = Rot.Tpm.create rng in
  let boot_report =
    Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image
  in
  let backend =
    Backend_riscv.create machine ~monitor_range:boot_report.Rot.Boot.monitor_range
      ?alloc_strategy ()
  in
  let monitor =
    Tyche.Monitor.boot machine ~backend ~tpm ~rng
      ~monitor_range:boot_report.Rot.Boot.monitor_range
  in
  { machine; tpm; rng; boot_report; backend; monitor }

(* Shard [shard]'s world in a federation booted from [seed]: an x86
   machine, its backend, TPM, rng and monitor range. [devices] attach
   to shard 0 (the sharded monitor routes device capabilities there). *)
let shard_world ?(seed = 0x71L) ?(cores = 2) ?(mem_size = 8 * 1024 * 1024) ?(devices = [])
    ~shard () =
  let machine = Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores ~mem_size () in
  if shard = 0 then List.iter (Hw.Machine.attach_device machine) devices;
  let srng = Crypto.Rng.create ~seed:(Int64.add seed (Int64.of_int (shard * 7919))) in
  let tpm = Rot.Tpm.create srng in
  let report = Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image in
  (machine, Backend_x86.create machine (), tpm, srng, report.Rot.Boot.monitor_range)

(* A sharded federation: [shards] independent x86 worlds behind one
   global namespace. *)
let boot_sharded ?(seed = 0x71L) ?(shards = 2) ?cores ?mem_size ?devices () =
  Tyche.Sharded.boot ~shards ~rng:(Crypto.Rng.create ~seed)
    ~mk:(fun ~shard -> shard_world ~seed ?cores ?mem_size ?devices ~shard ())
    ()

(* The OS's largest memory capability on one shard, as a global id. *)
let sharded_os_memory_cap t ~shard =
  let m = Tyche.Sharded.shard_monitor t shard in
  let tree = Tyche.Monitor.tree m in
  let size cap =
    match Cap.Captree.resource tree cap with
    | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.len r
    | _ -> 0
  in
  match Tyche.Monitor.caps_of m Tyche.Domain.initial with
  | [] -> Alcotest.fail "domain 0 holds no capabilities on the shard"
  | caps ->
    Tyche.Sharded.gcap ~shard
      (List.fold_left (fun best c -> if size c > size best then c else best) (List.hd caps) caps)

(* The OS's capability for a (global) core id, as a global id. *)
let sharded_os_core_cap t core =
  let shard = core / Tyche.Sharded.cores_per_shard t in
  let local = core mod Tyche.Sharded.cores_per_shard t in
  let m = Tyche.Sharded.shard_monitor t shard in
  let tree = Tyche.Monitor.tree m in
  Tyche.Sharded.gcap ~shard
    (List.find
       (fun cap -> Cap.Captree.resource tree cap = Some (Cap.Resource.Cpu_core local))
       (Tyche.Monitor.caps_of m Tyche.Domain.initial))

let os = Tyche.Domain.initial

(* One call on a federation, as [caller] trapping on global [core]. *)
let fed ?(caller = os) ?(core = 0) t call = Tyche.Sharded.dispatch t ~caller ~core call

(* The domain or capability id a successful call returned. *)
let id_of ?(msg = "expected an id") = function
  | Ok (Tyche.Api.R_domain id | Tyche.Api.R_cap id) -> id
  | r -> Alcotest.failf "%s: %a" msg Tyche.Api.pp_response r

(* The OS's largest memory capability (carves keep splitting it, so
   re-query rather than caching). *)
let os_memory_cap w =
  let tree = Tyche.Monitor.tree w.monitor in
  let size cap =
    match Cap.Captree.resource tree cap with
    | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.len r
    | _ -> 0
  in
  match Tyche.Monitor.caps_of w.monitor os with
  | [] -> Alcotest.fail "domain 0 holds no capabilities"
  | caps -> List.fold_left (fun best c -> if size c > size best then c else best) (List.hd caps) caps

let os_core_cap w core =
  let tree = Tyche.Monitor.tree w.monitor in
  List.find
    (fun cap -> Cap.Captree.resource tree cap = Some (Cap.Resource.Cpu_core core))
    (Tyche.Monitor.caps_of w.monitor os)

let get_ok ?(msg = "expected Ok") = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg (Tyche.Monitor.error_to_string e)

let get_ok_str ?(msg = "expected Ok") = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg e

let expect_error = function
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error"

(* A small two-segment image: a page of "code" and a page of shared IO. *)
let tiny_image ?(name = "tiny") ?(shared_page = true) () =
  let b = Image.Builder.create ~name in
  let b =
    Image.Builder.add_segment b ~name:".text" ~vaddr:0
      ~data:(String.init 100 (fun i -> Char.chr (65 + (i mod 26))))
      ~perm:Hw.Perm.rx ()
  in
  let b =
    Image.Builder.add_segment b ~name:".data" ~vaddr:4096
      ~data:"initialized-data" ~perm:Hw.Perm.rw ()
  in
  let b =
    if shared_page then
      Image.Builder.add_segment b ~name:".shared" ~vaddr:8192 ~data:"io"
        ~perm:Hw.Perm.rw ~visibility:Image.Shared ~measured:false ()
    else b
  in
  Result.get_ok (Image.Builder.finish (Image.Builder.set_entry b 0))

(* [domain]'s attestation body enumerated with the captree's full-scan
   [_reference] queries and no memo: the baseline the indexed
   [Monitor.attest_body_of] is cross-checked and benchmarked against. *)
let reference_body m ~domain =
  let tree = Tyche.Monitor.tree m in
  let measured =
    match Tyche.Monitor.find_domain m domain with
    | Some d -> Tyche.Domain.measured_ranges d
    | None -> []
  in
  List.fold_left
    (fun (regions, cores, devices) cap ->
      match Cap.Captree.resource tree cap, Cap.Captree.rights tree cap with
      | Some (Cap.Resource.Memory r as res), Some rights ->
        let report =
          { Tyche.Attestation.range = r;
            perm = rights.Cap.Rights.perm;
            refcount = Cap.Captree.refcount_reference tree res;
            holders = Cap.Captree.holders_reference tree res;
            measured =
              List.exists
                (fun m ->
                  Hw.Addr.Range.includes ~outer:m ~inner:r
                  || Hw.Addr.Range.includes ~outer:r ~inner:m)
                measured }
        in
        (report :: regions, cores, devices)
      | Some (Cap.Resource.Cpu_core c as res), Some _ ->
        (regions, (c, Cap.Captree.refcount_reference tree res) :: cores, devices)
      | Some (Cap.Resource.Device dev as res), Some _ ->
        (regions, cores, (dev, Cap.Captree.refcount_reference tree res) :: devices)
      | _ -> (regions, cores, devices))
    ([], [], [])
    (Cap.Captree.caps_of_domain_reference tree domain)

(* [att] re-wrapped in the retired version-1 envelope of a directly
   signed report (u32 payload length, payload, u32 signature length,
   signature), carrying its root signature. The signature is cut from
   the tail of [att]'s own envelope: magic, u32 payload length, payload,
   32-byte root, u32 leaf index, u32 path length, path digests, u32
   signature length, signature. *)
let v1_envelope att =
  let wire = Tyche.Attestation.to_wire att and body = Tyche.Attestation.payload att in
  let magic = String.length "tyche-attestation-wire-v2\x00" in
  let path_at = magic + 4 + String.length body + 36 in
  let sig_at = path_at + 4 + (32 * Int32.to_int (String.get_int32_be wire path_at)) + 4 in
  let sg = String.sub wire sig_at (String.length wire - sig_at) in
  let b = Buffer.create (String.length wire) in
  Buffer.add_int32_be b (Int32.of_int (String.length body));
  Buffer.add_string b body;
  Buffer.add_int32_be b (Int32.of_int (String.length sg));
  Buffer.add_string b sg;
  Buffer.contents b

let contains_substring s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check_no_violations monitor =
  match Tyche.Invariants.check_all monitor with
  | [] -> ()
  | vs ->
    Alcotest.failf "invariant violations: %s"
      (String.concat "; "
         (List.map (Format.asprintf "%a" Tyche.Invariants.pp_violation) vs))

(* --- chaos-seed replay conventions -----------------------------------

   Both chaos drivers (test_fault's fault-plan sweeps and
   test_persist_chaos's crash-restart runs) announce their seed and
   report failures through these helpers, so a red run always prints
   the same one-line replay recipe regardless of which driver found it
   (see README, "Reproducing a chaos failure"). *)

let chaos_seed ~default =
  match Sys.getenv_opt "TYCHE_FAULT_SEED" with
  | Some s -> (match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let chaos_replay_line ~suite ~seed =
  Printf.sprintf "chaos[%s]: failing seed=%d — replay with: TYCHE_FAULT_SEED=%d dune build @chaos"
    suite seed seed

let chaos_banner ?(extra = "") ~suite ~seed () =
  Printf.printf "chaos[%s]: seed=%d%s (replay: TYCHE_FAULT_SEED=%d dune build @chaos)\n%!"
    suite seed extra seed

(* The unbalanced-span audit every chaos driver (and the [@coverage]
   gate through them) runs after its workload: instrumentation must
   stay balanced even when injected faults unwind mid-span. *)
let chaos_check_obs ~suite ~seed ~where =
  match Obs.check () with
  | Ok () -> ()
  | Error msg ->
    prerr_endline (chaos_replay_line ~suite ~seed);
    Printf.eprintf "FAIL: %s: obs self-audit: %s\n%!" where msg;
    exit 1
