(* Backend-specific tests: EPT/VMFUNC behaviour on x86, PMP entry
   budgets and layout validation on RISC-V, and the TLB-strategy and
   allocation-strategy ablations. *)

open Testkit

let range ~base ~len = Hw.Addr.Range.make ~base ~len
let page = Hw.Addr.page_size

(* Let [d] run on [core]: a core capability, an entry point and the
   seal. Memory must be shared to [d] before this — a sealed domain's
   memory cannot be extended. *)
let make_runnable w d ~core ~entry =
  let m = w.monitor in
  ignore
    (get_ok
       (Tyche.Monitor.share m ~caller:os ~cap:(os_core_cap w core) ~to_:d
          ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ()));
  get_ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:d entry);
  get_ok (Tyche.Monitor.seal m ~caller:os ~domain:d)

(* Build a sealed domain with [n_pages] of memory at [base] and core 0. *)
let make_domain w ~name ~base ~n_pages =
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name ~kind:Tyche.Domain.Enclave) in
  let sub = range ~base ~len:(n_pages * page) in
  let piece = get_ok (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w) ~subrange:sub) in
  let _ =
    get_ok
      (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:d ~rights:Cap.Rights.full
         ~cleanup:Cap.Revocation.Zero)
  in
  make_runnable w d ~core:0 ~entry:base;
  d

let test_x86_ept_per_domain () =
  let w = boot_x86 () in
  let d = make_domain w ~name:"d" ~base:0x10000 ~n_pages:2 in
  (match Backend_x86.ept_of w.backend d with
  | Some ept -> Alcotest.(check int) "domain EPT has 2 pages" 2 (Hw.Ept.mapped_pages ept)
  | None -> Alcotest.fail "no EPT for domain");
  match Backend_x86.ept_of w.backend os with
  | Some ept ->
    Alcotest.(check bool) "os EPT no longer maps the granted range" false
      (Hw.Ept.reaches_hpa_range ept (range ~base:0x10000 ~len:(2 * page)))
  | None -> Alcotest.fail "no EPT for OS"

let test_x86_unaligned_rejected () =
  let w = boot_x86 () in
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"d" ~kind:Tyche.Domain.Sandbox) in
  match
    Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w) ~to_:d ~rights:Cap.Rights.rw
      ~cleanup:Cap.Revocation.Keep ~subrange:(range ~base:0x10010 ~len:100) ()
  with
  | Error (Tyche.Monitor.Backend_refused msg) ->
    Alcotest.(check bool) "mentions alignment" true (contains_substring msg "aligned")
  | Error e -> Alcotest.failf "wrong error: %s" (Tyche.Monitor.error_to_string e)
  | Ok _ -> Alcotest.fail "unaligned share accepted by EPT backend"

let path = Alcotest.testable Tyche.Backend_intf.pp_transition_path ( = )

(* The first call traps and registers the pair both ways, since a call
   implies its return: the return is already exit-less. *)
let test_x86_eptp_registration () =
  let w = boot_x86 () in
  let m = w.monitor in
  let d = make_domain w ~name:"d" ~base:0x10000 ~n_pages:1 in
  Alcotest.(check bool) "not registered before first call" false
    (Backend_x86.eptp_registered w.backend ~from_:os ~to_:d);
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:d) in
  Alcotest.(check bool) "registered after first trap" true
    (Backend_x86.eptp_registered w.backend ~from_:os ~to_:d);
  Alcotest.(check bool) "reverse registered by the same trap" true
    (Backend_x86.eptp_registered w.backend ~from_:d ~to_:os);
  Alcotest.check path "first return is exit-less" Tyche.Backend_intf.Fast_switch
    (get_ok (Tyche.Monitor.ret m ~core:0));
  Alcotest.(check int) "counted traps" 1 (Backend_x86.trap_transitions w.backend);
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:d) in
  Alcotest.(check int) "counted fast" 2 (Backend_x86.fast_transitions w.backend)

(* Claim C7 under churn: domain 0 runs more tenant lifecycles than its
   EPTP list has slots. Each destroy frees the dead tenant's slot, so
   the last tenant still gets one trap and then only VMFUNCs, and no
   list ever names a dead EPT. *)
let test_x86_eptp_churn () =
  let w = boot_x86 () in
  let m = w.monitor in
  let lifecycles = 600 in
  for i = 1 to lifecycles do
    let d =
      make_domain w ~name:(Printf.sprintf "t%d" i) ~base:(0x400000 + (i * page)) ~n_pages:1
    in
    let call () = get_ok (Tyche.Monitor.call m ~core:0 ~target:d) in
    let ret () = get_ok (Tyche.Monitor.ret m ~core:0) in
    let call1 = call () in
    let ret1 = ret () in
    let call2 = call () in
    let ret2 = ret () in
    get_ok (Tyche.Monitor.destroy_domain m ~caller:os ~domain:d);
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "no stale switch after destroy %d" i)
      [] (w.backend.Tyche.Backend_intf.stale_switches ());
    if i = lifecycles then
      Alcotest.(check (list path)) "last lifecycle: one trap, then VMFUNC"
        Tyche.Backend_intf.[ Trap_roundtrip; Fast_switch; Fast_switch; Fast_switch ]
        [ call1; ret1; call2; ret2 ]
  done

(* A tenant entered from domain 0 and from a peer holds a slot in both
   their lists. A destroy that rolls back gives both slots back; a
   committed one frees both. *)
let test_x86_destroy_frees_every_list () =
  let w = boot_x86 () in
  let m = w.monitor in
  let b = w.backend in
  let peer = make_domain w ~name:"peer" ~base:0x10000 ~n_pages:1 in
  let d = make_domain w ~name:"d" ~base:0x20000 ~n_pages:1 in
  let enter target = ignore (get_ok (Tyche.Monitor.call m ~core:0 ~target)) in
  let leave () = ignore (get_ok (Tyche.Monitor.ret m ~core:0)) in
  enter d;
  leave ();
  enter peer;
  enter d;
  leave ();
  leave ();
  let registered () =
    ( Backend_x86.eptp_registered b ~from_:os ~to_:d,
      Backend_x86.eptp_registered b ~from_:peer ~to_:d )
  in
  Alcotest.(check (pair bool bool)) "in both lists" (true, true) (registered ());
  let dom = Option.get (Tyche.Monitor.find_domain m d) in
  b.Tyche.Backend_intf.txn_begin ();
  b.Tyche.Backend_intf.domain_destroyed dom;
  b.Tyche.Backend_intf.txn_rollback ();
  Alcotest.(check (pair bool bool)) "rollback restores both" (true, true) (registered ());
  get_ok (Tyche.Monitor.destroy_domain m ~caller:os ~domain:d);
  Alcotest.(check (list (pair int int))) "in neither list" []
    (b.Tyche.Backend_intf.stale_switches ())

let test_x86_transition_cycle_costs () =
  let w = boot_x86 () in
  let m = w.monitor in
  let d = make_domain w ~name:"d" ~base:0x10000 ~n_pages:1 in
  Hw.Machine.reset_cycles w.machine;
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:d) in
  let trap_cost = Hw.Machine.cycles w.machine in
  Alcotest.(check int) "trap = vmcall" Hw.Cycles.Cost.vmcall_roundtrip trap_cost;
  let _ = get_ok (Tyche.Monitor.ret m ~core:0) in
  Hw.Machine.reset_cycles w.machine;
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:d) in
  let fast_cost = Hw.Machine.cycles w.machine in
  Alcotest.(check int) "fast = vmfunc" Hw.Cycles.Cost.vmfunc fast_cost;
  Alcotest.(check bool) "paper ratio: ~10x" true (trap_cost / fast_cost >= 5)

(* Enter [d] on [core], read each page of [ranges] through the core's
   EPT walk (every load fills the TLB under [d]'s ASID, as a running
   domain would), then return to domain 0. *)
let run_and_touch w d ~core ranges =
  let m = w.monitor in
  let (_ : Tyche.Backend_intf.transition_path) = get_ok (Tyche.Monitor.call m ~core ~target:d) in
  List.iter
    (fun r ->
      List.iter (fun gpa -> ignore (get_ok (Tyche.Monitor.load m ~core gpa) : int))
        (Hw.Addr.Range.pages r))
    ranges;
  let (_ : Tyche.Backend_intf.transition_path) = get_ok (Tyche.Monitor.ret m ~core) in
  ()

let test_x86_tlb_strategies () =
  (* Full shootdown pays IPIs; ASID flush doesn't. *)
  let cost_of strategy =
    let w = boot_x86 ~tlb_strategy:strategy () in
    let m = w.monitor in
    let d = make_domain w ~name:"d" ~base:0x10000 ~n_pages:4 in
    run_and_touch w d ~core:0 [ range ~base:0x10000 ~len:(4 * page) ];
    let cap = List.hd (Tyche.Monitor.caps_of m d) in
    Hw.Machine.reset_cycles w.machine;
    get_ok (Tyche.Monitor.revoke m ~caller:os ~cap);
    Hw.Machine.cycles w.machine
  in
  let full = cost_of Backend_x86.Full_shootdown in
  let asid = cost_of Backend_x86.Asid_flush in
  Alcotest.(check bool) "shootdown costlier than asid flush" true (full > asid)

(* One revoke whose cascade detaches 16 pages across three domains: a
   parent share of 8 pages to [a], which re-shares them two pages at a
   time, two shares each to [b] and [c] — five victims in three
   domains. Each domain then runs on a core of its own and reads every
   page it holds, so every victim page has a cached translation under
   its domain's ASID. The victims' clean-up is [Keep], so the revoke
   charges exactly its EPT unmaps plus whatever TLB invalidation it
   pays. *)
let cascade_pages = 16

let cascade_world tlb_strategy =
  let w = boot_x86 ~tlb_strategy () in
  let m = w.monitor in
  let sandbox name =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name ~kind:Tyche.Domain.Sandbox)
  in
  let a = sandbox "a" and b = sandbox "b" and c = sandbox "c" in
  let base = 0x400000 in
  let share ~caller ~cap ~to_ ~rights sub =
    get_ok
      (Tyche.Monitor.share m ~caller ~cap ~to_ ~rights ~cleanup:Cap.Revocation.Keep
         ~subrange:sub ())
  in
  let parent =
    share ~caller:os ~cap:(os_memory_cap w) ~to_:a ~rights:Cap.Rights.full
      (range ~base ~len:(8 * page))
  in
  List.iteri
    (fun i to_ ->
      ignore
        (share ~caller:a ~cap:parent ~to_ ~rights:Cap.Rights.rw
           (range ~base:(base + (i * 2 * page)) ~len:(2 * page))))
    [ b; b; c; c ];
  let half i = range ~base:(base + (i * 4 * page)) ~len:(4 * page) in
  let cached = [ (a, range ~base ~len:(8 * page)); (b, half 0); (c, half 1) ] in
  List.iteri
    (fun i (d, r) ->
      make_runnable w d ~core:(i + 1) ~entry:(Hw.Addr.Range.base r);
      run_and_touch w d ~core:(i + 1) [ r ])
    cached;
  (w, parent, cached)

let revoke_cycles w cap =
  Hw.Machine.reset_cycles w.machine;
  get_ok (Tyche.Monitor.revoke w.monitor ~caller:os ~cap);
  Hw.Machine.cycles w.machine

let test_x86_one_shootdown_per_call () =
  let w, parent, _ = cascade_world Backend_x86.Full_shootdown in
  let remote = Array.length w.machine.Hw.Machine.cores - 1 in
  Alcotest.(check int) "16 unmaps + one shootdown"
    ((cascade_pages * Hw.Cycles.Cost.ept_unmap_page)
    + (remote * Hw.Cycles.Cost.tlb_shootdown_ipi)
    + Hw.Cycles.Cost.tlb_flush_full)
    (revoke_cycles w parent);
  Alcotest.(check int) "no cached translation survives" 0
    (Hw.Tlb.entries w.machine.Hw.Machine.tlb)

let test_x86_one_asid_flush_per_domain () =
  let w, parent, cached = cascade_world Backend_x86.Asid_flush in
  Alcotest.(check int) "16 unmaps + one ASID flush per affected domain"
    ((cascade_pages * Hw.Cycles.Cost.ept_unmap_page)
    + (List.length cached * Hw.Cycles.Cost.tlb_flush_asid))
    (revoke_cycles w parent);
  Alcotest.(check int) "no cached translation survives" 0
    (Hw.Tlb.entries w.machine.Hw.Machine.tlb)

(* A fault at the k-th page unmap rolls the revoke back: the restored
   mappings' cached translations stay valid, so none is invalidated —
   the rolled-back call costs the same under either strategy — and a
   hit on each of them is no leak to the oracle. *)
let test_x86_rollback_keeps_tlb () =
  let failed_revoke tlb_strategy =
    let w, parent, cached = cascade_world tlb_strategy in
    Hw.Taint.set_mode w.machine.Hw.Machine.taint Hw.Taint.Enforce;
    let tlb = w.machine.Hw.Machine.tlb in
    let before = Hw.Tlb.entries tlb in
    Hw.Machine.reset_cycles w.machine;
    Fault.with_plan (Fault.nth "ept.unmap" 10) (fun () ->
        match Tyche.Monitor.revoke w.monitor ~caller:os ~cap:parent with
        | Error (Tyche.Monitor.Backend_failure _) -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Tyche.Monitor.error_to_string e)
        | Ok () -> Alcotest.fail "the injected unmap fault did not fail the revoke");
    let cycles = Hw.Machine.cycles w.machine in
    Alcotest.(check int) "every cached translation kept" before (Hw.Tlb.entries tlb);
    List.iter
      (fun (asid, r) ->
        List.iter
          (fun gpa ->
            Alcotest.(check (option int)) "translation still cached" (Some gpa)
              (Hw.Tlb.lookup tlb ~asid ~gpa))
          (Hw.Addr.Range.pages r))
      cached;
    let r = Tyche.Fsck.check w.monitor in
    if not (Tyche.Fsck.ok r) then Alcotest.failf "fsck not clean: %a" Tyche.Fsck.pp r;
    check_no_violations w.monitor;
    cycles
  in
  Alcotest.(check int) "no invalidation charged under either strategy"
    (failed_revoke Backend_x86.Full_shootdown)
    (failed_revoke Backend_x86.Asid_flush)

(* --- which domains a revoke must invalidate ---------------------------

   The backend tracks which domains some core may cache: a core entered
   the domain since its last flush, or was running it then. A detach
   from any other domain cannot leave a stale translation, so the
   commit skips the invalidation; one that some core may cache still
   pays it. Each case runs under both strategies with the taint oracle
   enforcing, so a skipped invalidation that left a translation behind
   would raise. *)

let strategies =
  [ ("full shootdown", Backend_x86.Full_shootdown); ("asid flush", Backend_x86.Asid_flush) ]

(* [n] one-page shares from domain 0 to [d], each its own capability. *)
let share_pages w d ~base n =
  List.init n (fun i ->
      get_ok
        (Tyche.Monitor.share w.monitor ~caller:os ~cap:(os_memory_cap w) ~to_:d
           ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep
           ~subrange:(range ~base:(base + (i * page)) ~len:page) ()))

(* Domain 0 grants the page at [base] to a fresh domain. The grant
   detaches it from domain 0, which runs on every core, so the commit
   invalidates domain 0's translations. *)
let grant_page_away w ~base =
  let m = w.monitor in
  let sink =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"sink" ~kind:Tyche.Domain.Sandbox)
  in
  let piece =
    get_ok
      (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w) ~subrange:(range ~base ~len:page))
  in
  ignore
    (get_ok
       (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:sink ~rights:Cap.Rights.rw
          ~cleanup:Cap.Revocation.Keep))

let check_clean w where =
  let r = Tyche.Fsck.check w.monitor in
  if not (Tyche.Fsck.ok r) then Alcotest.failf "%s: fsck not clean: %a" where Tyche.Fsck.pp r;
  check_no_violations w.monitor

(* A domain that never ran — a fleet proxy or a fresh sandbox — caches
   no translation: revoking its memory costs exactly the EPT unmaps. *)
let test_x86_never_ran_skips_invalidation strategy () =
  let w = boot_x86 ~tlb_strategy:strategy () in
  Hw.Taint.set_mode w.machine.Hw.Machine.taint Hw.Taint.Enforce;
  List.iteri
    (fun i kind ->
      let d =
        get_ok
          (Tyche.Monitor.create_domain w.monitor ~caller:os ~name:(Printf.sprintf "idle%d" i) ~kind)
      in
      let caps = share_pages w d ~base:(0x400000 + (i * 0x10000)) 3 in
      List.iter
        (fun cap ->
          Alcotest.(check int) "one EPT unmap, no invalidation" Hw.Cycles.Cost.ept_unmap_page
            (revoke_cycles w cap))
        caps)
    [ Tyche.Domain.Remote; Tyche.Domain.Sandbox ];
  check_clean w "after revoking never-run domains"

(* A tenant runs on core 2 and returns; domain 0, which runs on every
   core, then grants a page away. Under [Full_shootdown] that commit
   empties the whole TLB, so the tenant's revokes invalidate nothing.
   Under [Asid_flush] it flushes domain 0 only: the tenant's first
   revoke still flushes its ASID, and the second invalidates nothing. *)
let test_x86_flushed_domain_skips_invalidation strategy () =
  let w = boot_x86 ~tlb_strategy:strategy () in
  let m = w.monitor in
  let tlb = w.machine.Hw.Machine.tlb in
  Hw.Taint.set_mode w.machine.Hw.Machine.taint Hw.Taint.Enforce;
  let tenant =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"tenant" ~kind:Tyche.Domain.Sandbox)
  in
  let base = 0x400000 in
  let caps = share_pages w tenant ~base 2 in
  make_runnable w tenant ~core:2 ~entry:base;
  run_and_touch w tenant ~core:2 [ range ~base ~len:(2 * page) ];
  Alcotest.(check int) "the tenant's walks are cached" 2 (Hw.Tlb.entries tlb);
  grant_page_away w ~base:0x500000;
  let first, second = match caps with [ c1; c2 ] -> (c1, c2) | _ -> assert false in
  let unmap = Hw.Cycles.Cost.ept_unmap_page in
  (match strategy with
  | Backend_x86.Full_shootdown ->
    Alcotest.(check int) "the grant's shootdown emptied the TLB" 0 (Hw.Tlb.entries tlb);
    Alcotest.(check int) "first revoke: no invalidation" unmap (revoke_cycles w first)
  | Backend_x86.Asid_flush ->
    Alcotest.(check int) "domain 0's flush kept the tenant's entries" 2 (Hw.Tlb.entries tlb);
    Alcotest.(check int) "first revoke: one ASID flush" (unmap + Hw.Cycles.Cost.tlb_flush_asid)
      (revoke_cycles w first));
  Alcotest.(check int) "no cached translation survives" 0 (Hw.Tlb.entries tlb);
  Alcotest.(check int) "second revoke: no invalidation" unmap (revoke_cycles w second);
  check_clean w "after the tenant's revokes"

(* Guard: a domain current on a core may cache its translations at any
   time — also after a flush that emptied them — so revoking its memory
   still pays the invalidation, and the core's next access walks the
   EPT instead of hitting a stale entry. *)
let test_x86_running_domain_still_invalidated strategy () =
  let w = boot_x86 ~tlb_strategy:strategy () in
  let m = w.monitor in
  Hw.Taint.set_mode w.machine.Hw.Machine.taint Hw.Taint.Enforce;
  let tenant =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"tenant" ~kind:Tyche.Domain.Sandbox)
  in
  let base = 0x400000 in
  let caps = share_pages w tenant ~base 2 in
  make_runnable w tenant ~core:1 ~entry:base;
  let (_ : Tyche.Backend_intf.transition_path) =
    get_ok (Tyche.Monitor.call m ~core:1 ~target:tenant)
  in
  let touch () =
    List.iter
      (fun gpa -> ignore (get_ok (Tyche.Monitor.load m ~core:1 gpa) : int))
      [ base; base + page ]
  in
  touch ();
  (* Domain 0 grants a page away: its invalidation runs while the
     tenant stays current, and the tenant walks again. *)
  grant_page_away w ~base:0x500000;
  touch ();
  let invalidation =
    match strategy with
    | Backend_x86.Full_shootdown ->
      ((Array.length w.machine.Hw.Machine.cores - 1) * Hw.Cycles.Cost.tlb_shootdown_ipi)
      + Hw.Cycles.Cost.tlb_flush_full
    | Backend_x86.Asid_flush -> Hw.Cycles.Cost.tlb_flush_asid
  in
  let denied gpa =
    match Tyche.Monitor.load m ~core:1 gpa with
    | Error (Tyche.Monitor.Denied _) -> ()
    | Error e -> Alcotest.failf "wrong error: %s" (Tyche.Monitor.error_to_string e)
    | Ok _ -> Alcotest.fail "a revoked page is still readable"
  in
  (* Each revoke follows a fresh walk of the page it takes away; the
     second also follows the first's own invalidation. *)
  List.iteri
    (fun i cap ->
      Alcotest.(check int) "unmap + invalidation" (Hw.Cycles.Cost.ept_unmap_page + invalidation)
        (revoke_cycles w cap);
      denied (base + (i * page));
      if i = 0 then
        Alcotest.(check int) "the kept page still reads" 0
          (get_ok (Tyche.Monitor.load m ~core:1 (base + page))))
    caps;
  check_clean w "after revoking a running domain"

(* Guard: the teardown's detaches commit after the backend forgot the
   domain, and still invalidate the translations it cached. *)
let test_x86_destroy_invalidates strategy () =
  let w = boot_x86 ~tlb_strategy:strategy () in
  let m = w.monitor in
  Hw.Taint.set_mode w.machine.Hw.Machine.taint Hw.Taint.Enforce;
  let tenant =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"tenant" ~kind:Tyche.Domain.Sandbox)
  in
  let base = 0x400000 in
  ignore (share_pages w tenant ~base 2);
  make_runnable w tenant ~core:1 ~entry:base;
  run_and_touch w tenant ~core:1 [ range ~base ~len:(2 * page) ];
  get_ok (Tyche.Monitor.destroy_domain m ~caller:os ~domain:tenant);
  Alcotest.(check int) "no cached translation survives" 0
    (Hw.Tlb.entries w.machine.Hw.Machine.tlb);
  check_clean w "after destroying a domain that ran"

let test_x86_iommu_follows_memory () =
  let gpu = Hw.Device.create ~kind:Hw.Device.Gpu ~bus:3 ~dev:0 ~fn:0 () in
  let w = boot_x86 ~devices:[ gpu ] () in
  let m = w.monitor in
  let machine = w.machine in
  (* At boot the device belongs to the OS: DMA into OS memory works. *)
  Hw.Device.dma_write gpu machine.Hw.Machine.iommu machine.Hw.Machine.mem 0x7000 "ok";
  (* Move the device to an IO domain holding only one page. *)
  let io = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"gpu" ~kind:Tyche.Domain.Io_domain) in
  let piece =
    get_ok (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w)
              ~subrange:(range ~base:0x10000 ~len:page))
  in
  let _ =
    get_ok (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:io ~rights:Cap.Rights.full
              ~cleanup:Cap.Revocation.Zero)
  in
  let dev_cap =
    List.find
      (fun c ->
        Cap.Captree.resource (Tyche.Monitor.tree m) c
        = Some (Cap.Resource.Device (Hw.Device.bdf gpu)))
      (Tyche.Monitor.caps_of m os)
  in
  let _ =
    get_ok (Tyche.Monitor.grant m ~caller:os ~cap:dev_cap ~to_:io
              ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep)
  in
  (* Now DMA is confined to the IO domain's page. *)
  Hw.Device.dma_write gpu machine.Hw.Machine.iommu machine.Hw.Machine.mem 0x10000 "in";
  Alcotest.check_raises "DMA outside blocked"
    (Hw.Iommu.Dma_fault { device = Hw.Device.bdf gpu; addr = 0x7000 })
    (fun () ->
      Hw.Device.dma_write gpu machine.Hw.Machine.iommu machine.Hw.Machine.mem 0x7000 "out")

(* Domain 0's capability for [device]. *)
let os_device_cap w device =
  List.find
    (fun c ->
      Cap.Captree.resource (Tyche.Monitor.tree w.monitor) c
      = Some (Cap.Resource.Device (Hw.Device.bdf device)))
    (Tyche.Monitor.caps_of w.monitor os)

(* A shared device's windows are the union of its holders' memory:
   revoking one holder's copy of the device, or of memory another
   holder of the device still holds, keeps the DMA the others hold. *)
let test_shared_device_keeps_dma boot () =
  let nic = Hw.Device.create ~kind:Hw.Device.Nic ~bus:1 ~dev:0 ~fn:0 () in
  let w = boot [ nic ] in
  let m = w.monitor and iommu = w.machine.Hw.Machine.iommu in
  let bdf = Hw.Device.bdf nic and p = range ~base:0x400000 ~len:page in
  let b = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"b" ~kind:Tyche.Domain.Sandbox) in
  let share_nic () =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:(os_device_cap w nic) ~to_:b
         ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ())
  in
  let reaches what =
    Alcotest.(check bool) what true (Hw.Iommu.device_reaches iommu ~device:bdf p);
    check_no_violations m
  in
  (* Case 1: domain 0 still holds the NIC after b's copy goes. *)
  let nic_b = share_nic () in
  get_ok (Tyche.Monitor.revoke m ~caller:os ~cap:nic_b);
  reaches "device copy revoked: NIC still reaches domain 0's page";
  (* Case 2: b's copy of a page goes, domain 0 holds both. *)
  let _ = share_nic () in
  let page_b =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w) ~to_:b ~rights:Cap.Rights.rw
         ~cleanup:Cap.Revocation.Keep ~subrange:p ())
  in
  get_ok (Tyche.Monitor.revoke m ~caller:os ~cap:page_b);
  reaches "memory copy revoked: NIC still reaches domain 0's page"

(* [check_dma] catches the IOMMU disagreeing with the tree either way. *)
let test_dma_damage_caught boot () =
  let nic = Hw.Device.create ~kind:Hw.Device.Nic ~bus:1 ~dev:0 ~fn:0 () in
  let w = boot [ nic ] in
  let m = w.monitor and iommu = w.machine.Hw.Machine.iommu in
  let bdf = Hw.Device.bdf nic in
  check_no_violations m;
  let dma_rules () =
    List.filter
      (fun v -> v.Tyche.Invariants.rule = "dma-matches-tree")
      (Tyche.Invariants.check_all m)
  in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"d" ~kind:Tyche.Domain.Sandbox) in
  let _ =
    get_ok
      (Tyche.Monitor.grant m ~caller:os ~cap:(os_device_cap w nic) ~to_:d
         ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep)
  in
  let p = range ~base:0x400000 ~len:page in
  let _ =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w) ~to_:d ~rights:Cap.Rights.rw
         ~cleanup:Cap.Revocation.Keep ~subrange:p ())
  in
  check_no_violations m;
  (* Lost: the holder's page drops out of the device's windows. *)
  Hw.Iommu.revoke_range iommu ~device:bdf p;
  Alcotest.(check int) "lost DMA caught" 1 (List.length (dma_rules ()));
  (* Leaked: a window over a page only domain 0 holds, on top. *)
  Hw.Iommu.grant iommu ~device:bdf (range ~base:0x500000 ~len:page) Hw.Perm.rw;
  Alcotest.(check int) "both violations caught" 2 (List.length (dma_rules ()));
  Alcotest.(check bool) "fsck's dma pass fails" false
    (List.for_all (fun i -> i.Tyche.Fsck.f_ok) (Tyche.Fsck.check m).Tyche.Fsck.items)

let on_x86 devices = boot_x86 ~devices ()
let on_riscv devices = boot_riscv ~devices ()

let test_riscv_entry_budget () =
  let w = boot_riscv () in
  let m = w.monitor in
  let budget = Backend_riscv.usable_entries w.machine in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"greedy" ~kind:Tyche.Domain.Sandbox) in
  (* Share discontiguous single pages until the budget runs out. Every
     other page, so ranges never merge. *)
  let shared = ref 0 in
  (try
     for i = 0 to budget + 4 do
       let base = 0x100000 + (i * 2 * page) in
       match
         Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w) ~to_:d
           ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep
           ~subrange:(range ~base ~len:page) ()
       with
       | Ok _ -> incr shared
       | Error (Tyche.Monitor.Backend_refused _) -> raise Exit
       | Error e -> Alcotest.failf "unexpected: %s" (Tyche.Monitor.error_to_string e)
     done;
     Alcotest.fail "PMP budget never enforced"
   with Exit -> ());
  Alcotest.(check int) "admitted exactly the budget" budget !shared

let test_riscv_merging_extends_budget () =
  (* With Merge_adjacent, contiguous pages collapse into one entry, so
     a contiguous domain can hold far more pages than entries. *)
  let w = boot_riscv ~alloc_strategy:Backend_riscv.Merge_adjacent () in
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"contig" ~kind:Tyche.Domain.Sandbox) in
  for i = 0 to 63 do
    let base = 0x100000 + (i * page) in
    let _ =
      get_ok
        (Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w) ~to_:d
           ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep
           ~subrange:(range ~base ~len:page) ())
    in
    ()
  done;
  Alcotest.(check int) "64 contiguous pages = 1 PMP segment" 1
    (List.length (Backend_riscv.layout_of w.backend d));
  (* First_fit, by contrast, burns an entry per share. *)
  let w2 = boot_riscv ~alloc_strategy:Backend_riscv.First_fit () in
  let m2 = w2.monitor in
  let d2 = get_ok (Tyche.Monitor.create_domain m2 ~caller:os ~name:"frag" ~kind:Tyche.Domain.Sandbox) in
  let budget = Backend_riscv.usable_entries w2.machine in
  let shared = ref 0 in
  (try
     for i = 0 to 63 do
       let base = 0x100000 + (i * page) in
       match
         Tyche.Monitor.share m2 ~caller:os ~cap:(os_memory_cap w2) ~to_:d2
           ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep
           ~subrange:(range ~base ~len:page) ()
       with
       | Ok _ -> incr shared
       | Error _ -> raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool) "first-fit exhausts at the budget" true (!shared <= budget)

let test_riscv_monitor_locked () =
  let w = boot_riscv () in
  let mon_base = Hw.Addr.Range.base w.boot_report.Rot.Boot.monitor_range in
  expect_error (Tyche.Monitor.load w.monitor ~core:0 mon_base);
  expect_error (Tyche.Monitor.store w.monitor ~core:0 mon_base 1)

let test_riscv_transition_reprograms_pmp () =
  let w = boot_riscv () in
  let m = w.monitor in
  let d = make_domain w ~name:"d" ~base:0x10000 ~n_pages:1 in
  let writes_before = Backend_riscv.pmp_reprogram_writes w.backend in
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:d) in
  Alcotest.(check bool) "transition rewrote PMP entries" true
    (Backend_riscv.pmp_reprogram_writes w.backend > writes_before);
  (* While the enclave runs, the OS's memory is not reachable on core 0. *)
  expect_error (Tyche.Monitor.load m ~core:0 0x4000);
  (* But the OS still runs undisturbed on core 1. *)
  get_ok (Tyche.Monitor.store m ~core:1 0x4000 5);
  Alcotest.(check int) "core 1 unaffected" 5 (get_ok (Tyche.Monitor.load m ~core:1 0x4000));
  let _ = get_ok (Tyche.Monitor.ret m ~core:0) in
  Alcotest.(check int) "transitions counted" 2 (Backend_riscv.transitions w.backend)

let test_riscv_subpage_granularity () =
  (* PMP segments are byte-granular (TOR), unlike 4 KiB EPT pages: the
     PMP backend accepts a 64-byte share the EPT backend refuses. *)
  let w = boot_riscv () in
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"tiny" ~kind:Tyche.Domain.Sandbox) in
  let sliver = range ~base:0x10040 ~len:64 in
  let _ =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w) ~to_:d
         ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep ~subrange:sliver ())
  in
  Alcotest.(check int) "sub-page region attached" 2
    (Cap.Captree.refcount (Tyche.Monitor.tree m) (Cap.Resource.Memory sliver));
  (* Same request on x86: backend refusal. *)
  let wx = boot_x86 () in
  let dx = get_ok (Tyche.Monitor.create_domain wx.monitor ~caller:os ~name:"tiny" ~kind:Tyche.Domain.Sandbox) in
  match
    Tyche.Monitor.share wx.monitor ~caller:os ~cap:(os_memory_cap wx) ~to_:dx
      ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep ~subrange:sliver ()
  with
  | Error (Tyche.Monitor.Backend_refused _) -> ()
  | _ -> Alcotest.fail "EPT backend accepted a sub-page range"

let test_riscv_ecall_cost () =
  let w = boot_riscv () in
  let m = w.monitor in
  let d = make_domain w ~name:"d" ~base:0x10000 ~n_pages:1 in
  Hw.Machine.reset_cycles w.machine;
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:d) in
  let cost = Hw.Machine.cycles w.machine in
  Alcotest.(check bool) "cost = ecall + pmp writes" true
    (cost >= Hw.Cycles.Cost.ecall_machine_mode
     && cost < Hw.Cycles.Cost.ecall_machine_mode + (32 * Hw.Cycles.Cost.pmp_entry_write))

(* --- clean-up cost: each revoked byte is cleaned once per call ---------

   Domain 0 shares one page down a chain of sandboxes that never ran,
   every link with [cleanup]; revoking domain 0's share detaches the
   page from every link in one call. Each detach pays its backend's
   unmap (an EPT unmap on x86; nothing on RISC-V, since no hart runs
   the domain), but the call zeroes and flushes the page once however
   many links held it. No TLB invalidation is charged: no core ever
   entered a link. *)
let page_lines = page / Hw.Cache.line_size

let chain_revoke boot ~links cleanup =
  let w = boot () in
  let m = w.monitor in
  Hw.Taint.set_mode w.machine.Hw.Machine.taint Hw.Taint.Enforce;
  let base = 0x400000 in
  let page_range = range ~base ~len:page in
  let root =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w)
         ~to_:(get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"link0"
                         ~kind:Tyche.Domain.Sandbox))
         ~rights:Cap.Rights.rw ~cleanup ~subrange:page_range ())
  in
  let _ =
    List.fold_left
      (fun cap i ->
        let holder = Option.get (Cap.Captree.owner (Tyche.Monitor.tree m) cap) in
        let next =
          get_ok
            (Tyche.Monitor.create_domain m ~caller:os ~name:(Printf.sprintf "link%d" i)
               ~kind:Tyche.Domain.Sandbox)
        in
        get_ok
          (Tyche.Monitor.share m ~caller:holder ~cap ~to_:next ~rights:Cap.Rights.rw ~cleanup ()))
      root
      (List.init (links - 1) succ)
  in
  let mem = w.machine.Hw.Machine.mem and cache = w.machine.Hw.Machine.cache in
  Hw.Physmem.write mem base (String.make page '\x5a');
  for i = 0 to page_lines - 1 do
    Hw.Cache.touch cache ~tag:os (base + (i * Hw.Cache.line_size))
  done;
  let cycles = revoke_cycles w root in
  Alcotest.(check bool) "the page is zeroed" true
    (String.for_all (( = ) '\x00') (Hw.Physmem.read mem page_range));
  Alcotest.(check int) "no line of the page stays resident"
    (if Cap.Revocation.flushes_cache cleanup then 0 else page_lines)
    (List.length (Hw.Cache.resident_lines_in cache page_range));
  check_clean w "after the chain revoke";
  cycles

let zero_page = page_lines * Hw.Cycles.Cost.zero_cache_line
let flush_page = page_lines * Hw.Cycles.Cost.cache_flush_line

let test_chain_zeroes_once (unmap, boot) () =
  Alcotest.(check int) "three detaches, one page zeroing"
    ((3 * unmap) + zero_page)
    (chain_revoke boot ~links:3 Cap.Revocation.Zero)

let test_pair_cleans_once (unmap, boot) () =
  Alcotest.(check int) "two detaches, one zeroing, one flush"
    ((2 * unmap) + zero_page + flush_page)
    (chain_revoke boot ~links:2 Cap.Revocation.Zero_and_flush)

let cleanup_archs =
  [ ("x86", (Hw.Cycles.Cost.ept_unmap_page, fun () -> boot_x86 ()));
    ("riscv", (0, fun () -> boot_riscv ())) ]

let () =
  Alcotest.run "backends"
    [ ( "x86-vtx",
        [ Alcotest.test_case "per-domain EPT" `Quick test_x86_ept_per_domain;
          Alcotest.test_case "unaligned rejected" `Quick test_x86_unaligned_rejected;
          Alcotest.test_case "eptp registration" `Quick test_x86_eptp_registration;
          Alcotest.test_case "eptp slots survive churn" `Quick test_x86_eptp_churn;
          Alcotest.test_case "destroy frees every list" `Quick test_x86_destroy_frees_every_list;
          Alcotest.test_case "transition cycle costs" `Quick test_x86_transition_cycle_costs;
          Alcotest.test_case "tlb strategy ablation" `Quick test_x86_tlb_strategies;
          Alcotest.test_case "one shootdown per call" `Quick test_x86_one_shootdown_per_call;
          Alcotest.test_case "one asid flush per domain" `Quick
            test_x86_one_asid_flush_per_domain;
          Alcotest.test_case "rollback keeps the tlb" `Quick test_x86_rollback_keeps_tlb;
          Alcotest.test_case "iommu follows memory" `Quick test_x86_iommu_follows_memory ] );
      ( "dma",
        List.concat_map
          (fun (arch, boot) ->
            [ Alcotest.test_case ("shared device keeps its holders' DMA, " ^ arch) `Quick
                (test_shared_device_keeps_dma boot);
              Alcotest.test_case ("damaged iommu caught both ways, " ^ arch) `Quick
                (test_dma_damage_caught boot) ])
          [ ("x86", on_x86); ("riscv", on_riscv) ] );
      ( "x86-tlb-cores",
        List.concat_map
          (fun (name, strategy) ->
            [ Alcotest.test_case ("never ran: no invalidation, " ^ name) `Quick
                (test_x86_never_ran_skips_invalidation strategy);
              Alcotest.test_case ("flushed since it ran: no invalidation, " ^ name) `Quick
                (test_x86_flushed_domain_skips_invalidation strategy);
              Alcotest.test_case ("running domain still invalidated, " ^ name) `Quick
                (test_x86_running_domain_still_invalidated strategy);
              Alcotest.test_case ("destroy still invalidates, " ^ name) `Quick
                (test_x86_destroy_invalidates strategy) ])
          strategies );
      ( "riscv-pmp",
        [ Alcotest.test_case "entry budget enforced" `Quick test_riscv_entry_budget;
          Alcotest.test_case "merging ablation" `Quick test_riscv_merging_extends_budget;
          Alcotest.test_case "monitor locked" `Quick test_riscv_monitor_locked;
          Alcotest.test_case "transition reprograms PMP" `Quick
            test_riscv_transition_reprograms_pmp;
          Alcotest.test_case "ecall cost" `Quick test_riscv_ecall_cost;
          Alcotest.test_case "sub-page granularity" `Quick test_riscv_subpage_granularity ] );
      ( "cleanup-cost",
        List.concat_map
          (fun (arch, backend) ->
            [ Alcotest.test_case ("chain of three zeroes the page once, " ^ arch) `Quick
                (test_chain_zeroes_once backend);
              Alcotest.test_case ("zero+flush pair cleans the page once, " ^ arch) `Quick
                (test_pair_cleans_once backend) ])
          cleanup_archs ) ]
