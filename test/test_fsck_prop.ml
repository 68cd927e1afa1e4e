(* Property: the post-recovery fsck detects every injected
   inconsistency. A generator picks a mutation class — refcount
   over/under-reporting (phantom or removed segment holders), a dropped
   per-domain index entry, a child set naming a node whose parent link
   disagrees (its own node included), or a hardware-table desync (EPT
   on x86, PMP on riscv) — and applies it to a freshly recovered,
   fsck-clean monitor. The audit must come back non-clean every time,
   for every class, on both backends. *)

open Testkit

let page = Hw.Addr.page_size

(* Recovery targets are machines that have never booted a monitor of
   their own (same shape as test_persist's). *)
let fresh_target = function
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

(* Boot, run a small sharing workload under the WAL, crash-restart. The
   result is the system's own claim of a consistent state. *)
let recovered arch =
  let w = match arch with `X86 -> boot_x86 ~cores:4 () | `Riscv -> boot_riscv () in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let m = w.monitor in
  let sbx =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"sbx" ~kind:Tyche.Domain.Sandbox)
  in
  let piece =
    get_ok
      (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w)
         ~subrange:(Hw.Addr.Range.make ~base:0x400000 ~len:page))
  in
  let _ =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:piece ~to_:sbx ~rights:Cap.Rights.rw
         ~cleanup:Cap.Revocation.Keep ())
  in
  let machine, backend, tpm, rng, monitor_range = fresh_target arch in
  let m2, _report =
    get_ok_str (Tyche.Monitor.recover machine ~store ~backend ~tpm ~rng ~monitor_range)
  in
  m2

type mutation = Phantom_holder | Removed_holder | Dropped_index | Stray_child | Hw_desync

let all_mutations = [ Phantom_holder; Removed_holder; Dropped_index; Stray_child; Hw_desync ]

let mutation_name = function
  | Phantom_holder -> "phantom-holder"
  | Removed_holder -> "removed-holder"
  | Dropped_index -> "dropped-index-entry"
  | Stray_child -> "stray-child"
  | Hw_desync -> "hardware-desync"

(* Apply one mutation, using [pick] to vary which region/holder is hit.
   Returns false only when the class has no target in this state (never
   expected for the workload above). *)
let apply mut m2 ~pick =
  let tree = Tyche.Monitor.tree m2 in
  let regions = Cap.Captree.region_map tree in
  let nth xs = List.nth xs (pick mod List.length xs) in
  match mut with
  | Phantom_holder ->
    let r, _ = nth regions in
    Cap.Captree.Corrupt.add_phantom_holder tree ~base:(Hw.Addr.Range.base r) ~domain:9999
  | Removed_holder -> (
    match List.filter (fun (_, hs) -> hs <> []) regions with
    | [] -> false
    | populated ->
      let r, hs = nth populated in
      Cap.Captree.Corrupt.remove_holder tree ~base:(Hw.Addr.Range.base r)
        ~domain:(List.nth hs (pick mod List.length hs)))
  | Dropped_index ->
    Cap.Captree.Corrupt.drop_domain_index_entry tree ~domain:Tyche.Domain.initial
  | Stray_child -> (
    (* A root listing itself, another root or a node further down, or
       an id never issued. *)
    let nodes = Cap.Captree.dump tree in
    let root = List.find (fun (n : Cap.Captree.node_spec) -> n.ns_parent = None) nodes in
    match
      List.filter
        (fun (n : Cap.Captree.node_spec) -> n.ns_id <> root.ns_id && n.ns_parent <> Some root.ns_id)
        nodes
    with
    | [] -> false
    | others ->
      let child =
        match pick mod 3 with
        | 0 -> root.ns_id
        | 1 -> (nth others).Cap.Captree.ns_id
        | _ -> Cap.Captree.next_id tree
      in
      Cap.Captree.Corrupt.add_stray_child tree ~parent:root.ns_id ~child)
  | Hw_desync -> (
    (* Rip a mapping out of the hardware tables behind the tree's back:
       detach a non-OS holder's region directly through the backend. *)
    match List.filter (fun (_, hs) -> List.exists (fun h -> h > 0) hs) regions with
    | [] -> false
    | shared -> (
      let r, hs = nth shared in
      let domain = List.find (fun h -> h > 0) hs in
      match
        (Tyche.Monitor.backend m2).Tyche.Backend_intf.apply_effect
          (Cap.Captree.Detach
             { domain; resource = Cap.Resource.Memory r; cleanup = Cap.Revocation.Keep })
      with
      | Ok () -> true
      | Error _ -> false))

let check_detects arch mut ~pick =
  let m2 = recovered arch in
  let before = Tyche.Fsck.check m2 in
  if not (Tyche.Fsck.ok before) then
    QCheck.Test.fail_reportf "%s: not clean before mutation: %s" (mutation_name mut)
      (Format.asprintf "%a" Tyche.Fsck.pp before);
  if not (apply mut m2 ~pick) then
    QCheck.Test.fail_reportf "%s: mutation found no target" (mutation_name mut);
  let after = Tyche.Fsck.check m2 in
  if Tyche.Fsck.ok after then
    QCheck.Test.fail_reportf "%s (%s): fsck still clean after mutation" (mutation_name mut)
      (match arch with `X86 -> "x86" | `Riscv -> "riscv");
  true

let prop_fsck_detects =
  QCheck.Test.make ~name:"fsck: every injected inconsistency is detected" ~count:32
    QCheck.(triple (oneofl all_mutations) (oneofl [ `X86; `Riscv ]) small_nat)
    (fun (mut, arch, pick) -> check_detects arch mut ~pick)

(* Deterministic sweep so every class×backend pair runs even if qcheck
   sampling misses one, and every stray-child shape (one per pick mod 3). *)
let test_all_classes arch () =
  List.iter
    (fun mut ->
      let picks = if mut = Stray_child then [ 0; 1; 2 ] else [ 0 ] in
      List.iter (fun pick -> ignore (check_detects arch mut ~pick)) picks)
    all_mutations

let () =
  Alcotest.run "fsck-prop"
    [ ( "detection",
        [ QCheck_alcotest.to_alcotest prop_fsck_detects;
          Alcotest.test_case "all classes, x86" `Quick (test_all_classes `X86);
          Alcotest.test_case "all classes, riscv" `Quick (test_all_classes `Riscv) ] ) ]
