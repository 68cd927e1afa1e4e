(* tenant_churn — why it exists: this is the paper's Fig. 2/3 cloud-tenant
   path, and it covers every single-monitor layer, crypto, transitions
   and checkpoints included. One Monitor on a 4-core, 64 MiB x86
   machine; 32 tenant slots of 8 pages carved out of domain 0; each
   step picks a random slot and advances that tenant's lifecycle by one
   call (create, grant, share a core, entry point, measure, share an I/O
   page, seal, attest + client verify, three call/return pairs, revoke
   the I/O share, destroy). Each teardown removes at most 4 caps, so the
   cascade path stays idle, while domain 0's 16k-page EPT makes every
   grant's detach expensive. *)

open Harness

let name = "tenant_churn"
let rate = 3000
let chunk = 1000
let recoveries = 5
let slots = 32
let slot_pages = 8
let cores = 4
let mem_size = 64 * 1024 * 1024
let fsync_every = 64
let snapshot_every = 1000
let warmup_min_ops = 1100
let platform = 0x7e1
let os = Tyche.Domain.initial
let page = Hw.Addr.page_size

(* Stage k issues call k+1 of the lifecycle; stage 8 is three
   call/return pairs. *)
let stages = 11
let attest_stage = 7
let ops_of_stage s = if s = 8 then 6 else 1

(* The generator's schedule depends only on the seed, never on the
   monitor's answers, so set-up can count the attestations a run will
   issue before it sizes the signer. *)
type sched = { rng : Random.State.t; stage : int array; cycles_done : int array }

let sched seed =
  { rng = Random.State.make [| seed; 0x7e4a |];
    stage = Array.make slots 0;
    cycles_done = Array.make slots 0 }

let pick s = Random.State.int s.rng slots

let finish_stage s i =
  if s.stage.(i) = stages - 1 then begin
    s.stage.(i) <- 0;
    s.cycles_done.(i) <- s.cycles_done.(i) + 1
  end
  else s.stage.(i) <- s.stage.(i) + 1

(* Warm-up ends once every slot finished a lifecycle and enough calls
   went by for the first cadence checkpoint. *)
let warm s ops = ops >= warmup_min_ops && Array.for_all (fun n -> n > 0) s.cycles_done

let count_attests ~seed ~n_timed =
  let s = sched seed in
  let attests = ref 0 in
  let go stop =
    let ops = ref 0 in
    while not (stop !ops) do
      let i = pick s in
      if s.stage.(i) = attest_stage then incr attests;
      ops := !ops + ops_of_stage s.stage.(i);
      finish_stage s i
    done
  in
  go (warm s);
  go (fun ops -> ops >= n_timed);
  !attests

type slot = {
  range : Hw.Addr.Range.t;
  slot_cap : int;
  core : int;
  core_cap : int;
  tenant : string;
  mutable dom : int;
  mutable tcap : int;
  mutable iocap : int;
}

type t = {
  seed : int;
  host : host;
  m : Tyche.Monitor.t;
  dev : device;
  bt : btrace option;
  io : int;
  root : Crypto.Sha256.digest;
  slot : slot array;
  s : sched;
  mutable run : run;
  mutable nonce : int;
  mutable fast0 : int;
  mutable trap0 : int;
  mutable att0 : Tyche.Monitor.attest_telemetry;
  keygen_s : float;
}

let run w = w.run
let cycles w = Hw.Machine.cycles w.host.machine
let devices w = [ w.dev ]
let btrace w = w.bt
let keygen_s w = w.keygen_s
let nodes w = Cap.Captree.node_count (Tyche.Monitor.tree w.m)

let bad w what r = note_failure w.run (Format.asprintf "%s: %a" what Tyche.Api.pp_response r)

(* One call through the API, timed from just before the trap to just
   after the return. *)
let dispatch w ~caller ~core call =
  let t0 = now () in
  let r = Tyche.Api.dispatch w.m ~caller ~core call in
  let t1 = now () in
  note_op w.run ~name:(Tyche.Api.op_name call) (t1 - t0);
  if w.dev.wrote_ckpt then begin
    Samples.add w.run.ckpt (float_of_int (t1 - t0));
    w.dev.wrote_ckpt <- false
  end;
  (r, t1 - t0)

let unit_call w what ~caller ~core call =
  match fst (dispatch w ~caller ~core call) with Ok _ -> () | r -> bad w what r

let cap_call w what ~caller ~core call =
  match fst (dispatch w ~caller ~core call) with
  | Ok (Tyche.Api.R_cap c) -> c
  | r ->
    bad w what r;
    -1

let teardown w what ~caller ~core call =
  let tree = Tyche.Monitor.tree w.m in
  let before = Cap.Captree.node_count tree in
  let r, dt = dispatch w ~caller ~core call in
  note_teardown w.run ~removed:(before - Cap.Captree.node_count tree) dt;
  if w.bt <> None then
    Samples.add w.run.hot
      (float_of_int
         (List.fold_left
            (fun acc d -> max acc (List.length (Tyche.Monitor.caps_of w.m d)))
            0 [ os; w.io ]));
  match r with Ok _ -> () | r -> bad w what r

let first_page sl = Hw.Addr.Range.make ~base:(Hw.Addr.Range.base sl.range) ~len:page

let last_page sl =
  Hw.Addr.Range.make ~base:(Hw.Addr.Range.limit sl.range - page) ~len:page

(* What the client expects to read in a tenant's report: the sealed
   slot as one region shared with the I/O domain alone, its first page
   measured, and the tenant's core shared with domain 0 at least. *)
let report_matches w sl nonce (a : Tyche.Attestation.t) =
  a.Tyche.Attestation.domain = sl.dom
  && String.equal a.nonce nonce
  && a.sealed
  && (match a.regions with
     | [ r ] ->
       Hw.Addr.Range.equal r.Tyche.Attestation.range sl.range
       && r.refcount = 2 && r.measured
       && List.sort compare r.holders = List.sort compare [ sl.dom; w.io ]
     | _ -> false)
  && match a.cores with [ (c, n) ] -> c = sl.core && n >= 2 | _ -> false

let attest w sl =
  w.nonce <- w.nonce + 1;
  let nonce = Printf.sprintf "tenant-%d" w.nonce in
  match dispatch w ~caller:os ~core:sl.core (Tyche.Api.Attest { domain = sl.dom; nonce }) with
  | Ok (Tyche.Api.R_attestation att), dt ->
    let t0 = now () in
    let ok = Tyche.Attestation.verify ~monitor_root:w.root att in
    let v = now () - t0 in
    Samples.add w.run.verify (float_of_int v);
    Samples.add w.run.special (float_of_int (dt + v));
    if not ok then note_failure w.run "attestation does not verify"
    else if not (report_matches w sl nonce att) then
      note_failure w.run "attestation body does not match the tenant's configuration"
  | r, _ -> bad w "attest" r

let step w =
  let i = pick w.s in
  let sl = w.slot.(i) in
  let core = sl.core in
  (match w.s.stage.(i) with
  | 0 -> (
    match
      fst
        (dispatch w ~caller:os ~core
           (Tyche.Api.Create_domain { name = sl.tenant; kind = Tyche.Domain.Enclave }))
    with
    | Ok (Tyche.Api.R_domain d) -> sl.dom <- d
    | r -> bad w "create" r)
  | 1 ->
    sl.tcap <-
      cap_call w "grant" ~caller:os ~core
        (Tyche.Api.Grant
           { cap = sl.slot_cap; to_ = sl.dom; rights = Cap.Rights.full;
             cleanup = Cap.Revocation.Zero })
  | 2 ->
    ignore
      (cap_call w "share core" ~caller:os ~core
         (Tyche.Api.Share
            { cap = sl.core_cap; to_ = sl.dom; rights = Cap.Rights.exclusive_use;
              cleanup = Cap.Revocation.Keep; subrange = None })
        : int)
  | 3 ->
    unit_call w "entry point" ~caller:os ~core
      (Tyche.Api.Set_entry_point { domain = sl.dom; entry = Hw.Addr.Range.base sl.range })
  | 4 ->
    unit_call w "mark measured" ~caller:os ~core
      (Tyche.Api.Mark_measured { domain = sl.dom; range = first_page sl })
  | 5 ->
    sl.iocap <-
      cap_call w "share io" ~caller:sl.dom ~core
        (Tyche.Api.Share
           { cap = sl.tcap; to_ = w.io; rights = Cap.Rights.rw;
             cleanup = Cap.Revocation.Zero_and_flush; subrange = Some (last_page sl) })
  | 6 -> unit_call w "seal" ~caller:os ~core (Tyche.Api.Seal { domain = sl.dom })
  | 7 -> attest w sl
  | 8 ->
    for _ = 1 to 3 do
      unit_call w "call" ~caller:os ~core (Tyche.Api.Call { target = sl.dom });
      unit_call w "return" ~caller:sl.dom ~core Tyche.Api.Return
    done
  | 9 -> teardown w "revoke io" ~caller:sl.dom ~core (Tyche.Api.Revoke { cap = sl.iocap })
  | _ -> teardown w "destroy" ~caller:os ~core (Tyche.Api.Destroy { domain = sl.dom }));
  finish_stage w.s i

(* The d0 capability whose memory covers [range]. *)
let covering m range =
  let tree = Tyche.Monitor.tree m in
  match
    List.find_opt
      (fun c ->
        match memory_range tree c with
        | Some r -> Hw.Addr.Range.includes ~outer:r ~inner:range
        | None -> false)
      (Tyche.Monitor.caps_of m os)
  with
  | Some c -> c
  | None -> fail "no domain-0 capability covers %s" (Format.asprintf "%a" Hw.Addr.Range.pp range)

let setup_call m what ~caller call =
  match Tyche.Api.dispatch m ~caller ~core:0 call with
  | Ok v -> v
  | Error e -> fail "set-up %s failed: %s" what (Tyche.Monitor.error_to_string e)

let create ~seed ~n_timed ~traced =
  let height = signer_height (count_attests ~seed ~n_timed) in
  let bt = if traced then Some (Harness.btrace ()) else None in
  let host = host ?bt ~cores ~mem_size ~platform () in
  let pool, keygen_s = keypool ~height ~platform in
  let m =
    Tyche.Monitor.boot ~signer_height:height ~keypool:pool host.machine ~backend:host.used
      ~tpm:host.tpm ~rng:host.rng ~monitor_range:host.monitor_range
  in
  let dev = device ~traced () in
  Tyche.Monitor.enable_persistence m ~store:dev.store ~snapshot_every ~fsync_every ();
  let root =
    client_root host ~claimed:(Tyche.Monitor.attestation_root m)
      ~quote_of:(fun ~nonce -> Tyche.Monitor.boot_quote m ~nonce)
  in
  let free =
    match memory_range (Tyche.Monitor.tree m) (largest_memory m) with
    | Some r -> r
    | None -> fail "domain 0's largest capability is not memory"
  in
  let base0 = Hw.Addr.align_down (Hw.Addr.Range.base free + (Hw.Addr.Range.len free / 2)) in
  let slot =
    Array.init slots (fun i ->
        let range =
          Hw.Addr.Range.make ~base:(base0 + (i * slot_pages * page)) ~len:(slot_pages * page)
        in
        let slot_cap =
          match
            setup_call m "carve" ~caller:os
              (Tyche.Api.Carve { cap = covering m range; subrange = range })
          with
          | Tyche.Api.R_cap c -> c
          | _ -> fail "carve returned no capability"
        in
        let core = i mod cores in
        { range; slot_cap; core; core_cap = core_cap m core;
          tenant = Printf.sprintf "tenant-%02d" i; dom = -1; tcap = -1; iocap = -1 })
  in
  let io =
    match
      setup_call m "create io" ~caller:os
        (Tyche.Api.Create_domain { name = "io"; kind = Tyche.Domain.Io_domain })
    with
    | Tyche.Api.R_domain d -> d
    | _ -> fail "create returned no domain"
  in
  let bk = host.backend in
  let w =
    { seed; host; m; dev; bt; io; root; slot; s = sched seed; run = new_run (); nonce = 0;
      fast0 = Backend_x86.fast_transitions bk; trap0 = Backend_x86.trap_transitions bk;
      att0 = Tyche.Monitor.attest_telemetry m; keygen_s }
  in
  let snaps0 = (blob_of dev Persist.Store.snap_blob).appends in
  while not (warm w.s w.run.ops) do
    step w
  done;
  (match w.run.first_error with Some e -> fail "warm-up call failed: %s" e | None -> ());
  if (blob_of dev Persist.Store.snap_blob).appends = snaps0 then
    fail "warm-up wrote no checkpoint";
  w

let start_timed w =
  w.run <- new_run ();
  reset_device w.dev;
  Option.iter reset_btrace w.bt;
  w.fast0 <- Backend_x86.fast_transitions w.host.backend;
  w.trap0 <- Backend_x86.trap_transitions w.host.backend;
  w.att0 <- Tyche.Monitor.attest_telemetry w.m

(* Holdings the generator's model predicts, compared with the captree
   on a seeded sample of pages and on every core. *)
let check w =
  check_invariants name w.m;
  let tree = Tyche.Monitor.tree w.m in
  let rng = Random.State.make [| w.seed; 0x5a5a |] in
  for _ = 1 to 64 do
    let i = Random.State.int rng slots and p = Random.State.int rng slot_pages in
    let sl = w.slot.(i) and st = w.s.stage.(i) in
    let expected =
      if st < 2 then [ os ]
      else if p = slot_pages - 1 && st >= 6 && st <= 9 then List.sort compare [ sl.dom; w.io ]
      else [ sl.dom ]
    in
    let addr = Hw.Addr.Range.base sl.range + (p * page) in
    if holders_of tree addr <> expected then fail "%s: holders of page %#x disagree with the model" name addr
  done;
  let below = Hw.Addr.Range.base w.slot.(0).range - page in
  if holders_of tree below <> [ os ] then fail "%s: holders of page %#x disagree with the model" name below;
  for c = 0 to cores - 1 do
    let expected =
      List.sort compare
        (os
        :: List.filter_map
             (fun i ->
               let st = w.s.stage.(i) in
               if w.slot.(i).core = c && st >= 3 then Some w.slot.(i).dom else None)
             (List.init slots Fun.id))
    in
    if Cap.Captree.holders tree (Cap.Resource.Cpu_core c) <> expected then
      fail "%s: holders of core %d disagree with the model" name c
  done

type crashed = { contents : (string * string) list; acked : int }

let crash w =
  let acked = Option.value ~default:0 (Tyche.Monitor.durable_seq w.m) in
  { acked; contents = Harness.crash w.dev }

let wal_records_at_crash c = wal_records c.contents

let recovery c =
  let h = host ~cores ~mem_size ~platform () in
  let store = restore c.contents in
  fun () ->
    match
      Tyche.Monitor.recover ~snapshot_every ~fsync_every h.machine ~store ~backend:h.used ~tpm:h.tpm
        ~rng:h.rng ~monitor_range:h.monitor_range
    with
    | Error e -> fail "%s: recovery failed: %s" name e
    | Ok (m, report) ->
      check_fsck name m;
      (match Tyche.Monitor.persist_seq m with
      | Some s when s >= c.acked -> ()
      | _ -> fail "%s: recovery lost acknowledged operations (acked %d)" name c.acked);
      report.Tyche.Monitor.rr_replayed

let layer w =
  let fast = Backend_x86.fast_transitions w.host.backend - w.fast0
  and trap = Backend_x86.trap_transitions w.host.backend - w.trap0 in
  let att = Tyche.Monitor.attest_telemetry w.m in
  let hits = att.body_cache_hits - w.att0.body_cache_hits
  and misses = att.body_cache_misses - w.att0.body_cache_misses in
  [ metric ~n:(fast + trap) "backend_x86.fast_path_ratio" "ratio"
      (ratio (float_of_int fast) (float_of_int (fast + trap)));
    metric ~n:(hits + misses) "crypto.attest_body_hit_ratio" "ratio"
      (ratio (float_of_int hits) (float_of_int (hits + misses)));
    opt_metric ~n:(Samples.count w.run.verify) "verifier.verify_us" "us"
      (Option.map us_of_ns (Samples.median w.run.verify)) ]
