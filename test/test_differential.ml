(* Differential backend test: record one op trace (as wire-encoded
   Api calls), replay it verbatim through a fresh monitor on each
   backend, and require the observable outcomes to agree — attestation
   bodies (canonical payload, signatures excluded), captree
   fingerprints, per-step response shapes, and the obs api.* op counts.
   Cycle stamps are deliberately excluded: the two backends cost the
   same operations differently, and that is fine; what they may not do
   is diverge in state or behavior. *)

open Testkit

let page = Hw.Addr.page_size
let core = 0

(* Both worlds must present identical initial conditions for cap ids in
   the recorded trace to mean the same thing: same core count, no
   devices, same memory size. *)
let worlds () = (boot_x86 ~cores:2 (), boot_riscv ~cores:2 ())

let dispatch w call = Tyche.Api.dispatch w.monitor ~caller:os ~core call

(* Traces hold each call as domain 0 issues it, in the wire format. *)
let encode call = Tyche.Api.encode (Tyche.Api.issued os call)

let decode bytes =
  match get_ok_str ~msg:"decode recorded call" (Tyche.Api.decode bytes) with
  | Tyche.Api.Issued { call; _ } -> call
  | Tyche.Api.Evicted _ -> Alcotest.fail "recorded trace holds an eviction"

(* Record the trace on a scratch x86 world: the script needs real cap
   ids (carve's result feeds share, share's feeds revoke), so each call
   is dispatched as it is recorded. Only the encoded bytes survive. *)
let recorded_trace () =
  let w = boot_x86 ~cores:2 () in
  let trace = ref [] in
  let run call =
    trace := encode call :: !trace;
    dispatch w call
  in
  let cap_of = function
    | Ok (Tyche.Api.R_cap c) -> c
    | _ -> Alcotest.fail "recording: expected a capability result"
  in
  let dom_of = function
    | Ok (Tyche.Api.R_domain d) -> d
    | _ -> Alcotest.fail "recording: expected a domain result"
  in
  let mem = os_memory_cap w in
  let sbx = dom_of (run (Create_domain { name = "diff-sbx"; kind = Tyche.Domain.Sandbox })) in
  let piece = cap_of (run (Carve { cap = mem; subrange = Hw.Addr.Range.make ~base:0x400000 ~len:(2 * page) })) in
  let left, _right =
    match run (Split { cap = piece; at = 0x400000 + page }) with
    | Ok (Tyche.Api.R_cap_pair (a, b)) -> (a, b)
    | _ -> Alcotest.fail "recording: expected a cap pair"
  in
  let shared =
    cap_of
      (run
         (Share
            { cap = left; to_ = sbx; rights = Cap.Rights.rw;
              cleanup = Cap.Revocation.Zero; subrange = None }))
  in
  ignore (run (Set_entry_point { domain = sbx; entry = 0x400000 }));
  ignore (run (Mark_measured { domain = sbx; range = Hw.Addr.Range.make ~base:0x400000 ~len:page }));
  ignore (run (Seal { domain = sbx }));
  ignore (run (Attest { domain = sbx; nonce = "diff-nonce" }));
  ignore (run (Call { target = sbx }));
  ignore (run Return);
  ignore (run (Revoke { cap = shared }));
  ignore (run (Attest { domain = sbx; nonce = "diff-nonce-2" }));
  ignore (run Enumerate);
  (* A denied call must be denied identically on both backends. *)
  ignore (run (Seal { domain = 7777 }));
  List.rev !trace

(* Transition paths are backend-specific by design (vmfunc vs ecall);
   everything else about a response must match verbatim. *)
let summarize_response = function
  | Ok (Tyche.Api.R_path _) -> "ok <transition path>"
  | r -> Format.asprintf "%a" Tyche.Api.pp_response r

type outcome = {
  o_responses : string list;
  o_attest_bodies : Tyche.Attestation.t list;
  o_fingerprint : Cap.Captree.node_spec list * Cap.Captree.cap_id;
  o_api_counts : (string * int) list;
}

let replay w trace =
  Obs.reset ();
  let attests = ref [] in
  let responses =
    List.map
      (fun bytes ->
        let call = decode bytes in
        let resp = dispatch w call in
        (match resp with
        | Ok (Tyche.Api.R_attestation a) -> attests := a :: !attests
        | _ -> ());
        summarize_response resp)
      trace
  in
  let tree = Tyche.Monitor.tree w.monitor in
  let api_counts =
    List.filter
      (fun (name, _) -> String.length name > 7 && String.sub name 0 7 = "op.api.")
      (Obs.Metrics.counters ())
  in
  { o_responses = responses;
    o_attest_bodies = List.rev !attests;
    o_fingerprint = (Cap.Captree.dump tree, Cap.Captree.next_id tree);
    o_api_counts = api_counts }

let test_differential () =
  let wx, wr = worlds () in
  (* Initial capability layouts must agree, or replayed cap ids would
     name different resources on the two backends. *)
  let initial w =
    List.map
      (fun c -> (c, Cap.Captree.resource (Tyche.Monitor.tree w.monitor) c))
      (Tyche.Monitor.caps_of w.monitor os)
  in
  Alcotest.(check bool) "initial caps agree" true (initial wx = initial wr);
  let trace = recorded_trace () in
  let ox = replay wx trace in
  let or_ = replay wr trace in
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "step %d: x86 answered %s, riscv answered %s" i a b)
    (List.combine ox.o_responses or_.o_responses);
  Alcotest.(check int) "attestation count" (List.length ox.o_attest_bodies)
    (List.length or_.o_attest_bodies);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "attestation %d body identical" i)
        true
        (Tyche.Fsck.body_equal a b))
    (List.combine ox.o_attest_bodies or_.o_attest_bodies);
  Alcotest.(check bool) "captree fingerprints agree" true
    (ox.o_fingerprint = or_.o_fingerprint);
  Alcotest.(check bool) "api op counts agree" true (ox.o_api_counts = or_.o_api_counts);
  (* Neither replay may leak spans; counts must be non-trivial. *)
  Alcotest.(check bool) "api ops were counted" true
    (List.exists (fun (_, n) -> n > 0) ox.o_api_counts);
  match Obs.check () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "obs self-audit after replay: %s" e

(* ---------------- sharded vs. unsharded ----------------

   The global-id encoding is shard-count invariant for shard 0: a
   workload confined to shard 0's resources must produce identical
   responses, attestation bodies, shard-0 captree fingerprints and
   write-ahead logs whether the federation has 1 shard or 4. A 1-shard
   federation must in turn answer as a plain monitor booted like its
   shard 0 does, up to the global encoding of capability ids. The
   trace is recorded on a scratch 1-shard world (ops need real ids, as
   above) and replayed verbatim through all three. *)

let sharded_dispatch t call = Tyche.Sharded.dispatch t ~caller:os ~core call

let sharded_trace () =
  let t = boot_sharded ~shards:1 () in
  let trace = ref [] in
  let run call =
    trace := encode call :: !trace;
    sharded_dispatch t call
  in
  let mem = sharded_os_memory_cap t ~shard:0 in
  let sbx = id_of (run (Create_domain { name = "diff-sbx"; kind = Tyche.Domain.Sandbox })) in
  let piece = id_of (run (Carve { cap = mem; subrange = Hw.Addr.Range.make ~base:0x400000 ~len:(2 * page) })) in
  let left, _right =
    match run (Split { cap = piece; at = 0x400000 + page }) with
    | Ok (Tyche.Api.R_cap_pair (a, b)) -> (a, b)
    | _ -> Alcotest.fail "recording: expected a cap pair"
  in
  let shared =
    id_of
      (run
         (Share
            { cap = left; to_ = sbx; rights = Cap.Rights.rw;
              cleanup = Cap.Revocation.Zero; subrange = None }))
  in
  ignore (run (Set_entry_point { domain = sbx; entry = 0x400000 }));
  ignore (run (Mark_measured { domain = sbx; range = Hw.Addr.Range.make ~base:0x400000 ~len:page }));
  ignore (run (Seal { domain = sbx }));
  ignore (run (Attest { domain = sbx; nonce = "shard-nonce" }));
  ignore (run (Call { target = sbx }));
  ignore (run Return);
  ignore (run (Revoke { cap = shared }));
  (* A short-lived second domain: Destroy exercises the 2PC broadcast
     path on the N-shard side and the degenerate 1-shard path. *)
  let tmp = id_of (run (Create_domain { name = "diff-tmp"; kind = Tyche.Domain.Sandbox })) in
  (* Carving invalidated the old root: re-query the OS's largest piece
     (deterministic, so the recorded id means the same on replay). *)
  let mem2 = sharded_os_memory_cap t ~shard:0 in
  let piece2 = id_of (run (Carve { cap = mem2; subrange = Hw.Addr.Range.make ~base:0x100000 ~len:page })) in
  ignore
    (run
       (Share
          { cap = piece2; to_ = tmp; rights = Cap.Rights.read_only;
            cleanup = Cap.Revocation.Keep; subrange = None }));
  ignore (run (Destroy { domain = tmp }));
  ignore (run (Attest { domain = sbx; nonce = "shard-nonce-2" }));
  (* Denied calls must be denied identically at every shard count. *)
  ignore (run (Seal { domain = 7777 }));
  ignore (run (Revoke { cap = shared }));
  (sbx, List.rev !trace)

type sharded_outcome = {
  s_responses : string list;
  s_attest_bodies : Tyche.Attestation.t list;
  s_fingerprint : Cap.Captree.node_spec list * Cap.Captree.cap_id;
  s_wal : string;
}

(* Replay [trace] through [exec], logging to [store] (one fsync per
   record, so the blob holds every committed call); [monitor]'s final
   captree is fingerprinted. *)
let replay_logged ~exec ~store ~monitor trace =
  let attests = ref [] in
  let responses =
    List.map
      (fun bytes ->
        match exec (decode bytes) with
        | Ok (Tyche.Api.R_attestation a) ->
          attests := a :: !attests;
          "ok <attestation>"
        | resp -> summarize_response resp)
      trace
  in
  let tree = Tyche.Monitor.tree monitor in
  { s_responses = responses;
    s_attest_bodies = List.rev !attests;
    s_fingerprint = (Cap.Captree.dump tree, Cap.Captree.next_id tree);
    s_wal = Persist.Store.read store Persist.Store.wal_blob }

let sharded_replay t trace =
  let store = Persist.Store.mem () in
  Tyche.Sharded.enable_persistence t ~store ();
  replay_logged ~exec:(sharded_dispatch t) ~store ~monitor:(Tyche.Sharded.shard_monitor t 0)
    trace

(* A 1-shard federation's calls in shard 0's local capability ids. *)
let local_call : Tyche.Api.call -> Tyche.Api.call =
  let l = Tyche.Sharded.cap_local in
  function
  | Share r -> Share { r with cap = l r.cap }
  | Grant r -> Grant { r with cap = l r.cap }
  | Split r -> Split { r with cap = l r.cap }
  | Carve r -> Carve { r with cap = l r.cap }
  | Revoke { cap } -> Revoke { cap = l cap }
  | call -> call

(* A plain monitor's response with its capability ids in the global
   encoding of shard 0. *)
let global_response : Tyche.Api.response -> Tyche.Api.response =
  let g = Tyche.Sharded.gcap ~shard:0 in
  let cap_error : Cap.Captree.error -> Cap.Captree.error = function
    | No_such_capability c -> No_such_capability (g c)
    | Capability_inactive c -> Capability_inactive (g c)
    | e -> e
  in
  function
  | Ok (R_cap c) -> Ok (R_cap (g c))
  | Ok (R_cap_pair (a, b)) -> Ok (R_cap_pair (g a, g b))
  | Ok (R_caps cs) -> Ok (R_caps (List.map g cs))
  | Error (Tyche.Monitor.Cap_error e) -> Error (Tyche.Monitor.Cap_error (cap_error e))
  | r -> r

let plain_replay trace =
  let machine, backend, tpm, rng, monitor_range = shard_world ~shard:0 () in
  let m = Tyche.Monitor.boot machine ~backend ~tpm ~rng ~monitor_range in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence m ~store ();
  replay_logged ~store ~monitor:m
    ~exec:(fun call -> global_response (Tyche.Api.dispatch m ~caller:os ~core (local_call call)))
    trace

let records wal =
  List.map
    (fun (seq, payload) -> (seq, get_ok_str ~msg:"decode logged record" (Tyche.Op.decode payload)))
    (Persist.Wal.parse wal).Persist.Wal.records

(* A logged record with its capability operands in local ids. *)
let local_record : Tyche.Op.record -> Tyche.Op.record = function
  | Issued r -> Issued { r with call = local_call r.call }
  | record -> record

let check_same_replay ~what a b =
  List.iteri
    (fun i (x, y) ->
      if x <> y then Alcotest.failf "step %d: %s answered %s and %s" i what x y)
    (List.combine a.s_responses b.s_responses);
  Alcotest.(check int) (what ^ ": attestation count") (List.length a.s_attest_bodies)
    (List.length b.s_attest_bodies);
  List.iteri
    (fun i (x, y) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: attestation %d body identical" what i)
        true (Tyche.Fsck.body_equal x y))
    (List.combine a.s_attest_bodies b.s_attest_bodies);
  Alcotest.(check string) (what ^ ": captree dumps byte-identical")
    (Marshal.to_string a.s_fingerprint [ Marshal.No_sharing ])
    (Marshal.to_string b.s_fingerprint [ Marshal.No_sharing ])

let test_sharded_differential () =
  let sbx, trace = sharded_trace () in
  let t1 = boot_sharded ~shards:1 () and t4 = boot_sharded ~shards:4 () in
  let o1 = sharded_replay t1 trace and o4 = sharded_replay t4 trace in
  check_same_replay ~what:"1 shard vs 4 shards" o1 o4;
  Alcotest.(check bool) "sandbox capability sets agree" true
    (Tyche.Sharded.caps_of t1 sbx = Tyche.Sharded.caps_of t4 sbx);
  Alcotest.(check bool) "the logs hold the trace" true (List.length (records o1.s_wal) > 10);
  Alcotest.(check string) "WAL blobs byte-identical" o1.s_wal o4.s_wal;
  let om = plain_replay trace in
  check_same_replay ~what:"plain monitor vs 1 shard" om o1;
  Alcotest.(check bool) "WAL records agree in local ids" true
    (records om.s_wal = List.map (fun (seq, r) -> (seq, local_record r)) (records o1.s_wal))

(* ---------------- canonical detach vs. its per-effect twin ----------------

   [trim_detach_reference] is the monitor's former per-effect rewrite,
   kept here as the executable specification of the canonical layout:
   each memory Detach rescans the domain's whole holdings, detaches the
   uncovered pieces with its own clean-up, detaches the covered pieces
   with [Keep] and re-attaches every survivor over them. The one-pass
   [Monitor.canonical_effects] must leave the hardware exactly as the
   twin does — per-domain EPT entries and permissions, PMP layouts, and
   which bytes were zeroed and which cache lines flushed — on random
   trees full of overlapping aliases, self-shares, circular shares and
   mixed clean-up policies. *)

let trim_detach_reference tree eff =
  match eff with
  | Cap.Captree.Detach { domain; resource = Cap.Resource.Memory r; cleanup } ->
    let survivors =
      List.filter_map
        (fun c ->
          match (Cap.Captree.resource tree c, Cap.Captree.rights tree c) with
          | Some (Cap.Resource.Memory held), Some rights
            when Hw.Addr.Range.overlaps held r ->
            Some (held, rights.Cap.Rights.perm)
          | _ -> None)
        (Cap.Captree.caps_of_domain tree domain)
    in
    let uncovered =
      List.fold_left
        (fun pieces (held, _) ->
          List.concat_map (fun p -> Hw.Addr.Range.subtract p held) pieces)
        [ r ] survivors
    in
    let covered =
      List.fold_left
        (fun pieces unc ->
          List.concat_map (fun p -> Hw.Addr.Range.subtract p unc) pieces)
        [ r ] uncovered
    in
    let detach ~cleanup piece =
      Cap.Captree.Detach { domain; resource = Cap.Resource.Memory piece; cleanup }
    in
    let reattach =
      List.filter_map
        (fun (held, perm) ->
          match Hw.Addr.Range.intersect held r with
          | Some piece ->
            Some (Cap.Captree.Attach { domain; resource = Cap.Resource.Memory piece; perm })
          | None -> None)
        survivors
    in
    List.map (detach ~cleanup) uncovered
    @ List.map (detach ~cleanup:Cap.Revocation.Keep) covered
    @ reattach
  | eff -> [ eff ]

(* The playground: 16 pages of domain 0's memory, three sandboxes. *)
let window_base = 0x100000
let window_pages = 16
let window = Hw.Addr.Range.make ~base:window_base ~len:(window_pages * page)
let n_domains = 4

let policy_choices =
  [| Cap.Revocation.Keep; Cap.Revocation.Zero; Cap.Revocation.Flush_cache;
     Cap.Revocation.Zero_and_flush |]

let rights_choices = [| Cap.Rights.full; Cap.Rights.rw; Cap.Rights.read_only; Cap.Rights.rx |]

(* The property boots hundreds of worlds: 2 MiB machines, a one-key
   signer, and one TPM shared by all (its key generation dominates a
   boot; PCR extends from many monitors are harmless here). *)
let shared_tpm = lazy (Rot.Tpm.create (Crypto.Rng.create ~seed:0x3cL))

let small_world arch =
  let machine =
    Hw.Machine.create
      ~arch:(match arch with `X86 -> Hw.Cpu.X86_64 | `Riscv -> Hw.Cpu.Riscv64)
      ~cores:2 ~mem_size:(2 * 1024 * 1024) ()
  in
  let rng = Crypto.Rng.create ~seed:0x3dL in
  let tpm = Lazy.force shared_tpm in
  let boot_report =
    Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image
  in
  let monitor_range = boot_report.Rot.Boot.monitor_range in
  let backend =
    match arch with
    | `X86 -> Backend_x86.create machine ()
    | `Riscv -> Backend_riscv.create machine ~monitor_range ()
  in
  let monitor = Tyche.Monitor.boot ~signer_height:1 machine ~backend ~tpm ~rng ~monitor_range in
  let w = { machine; tpm; rng; boot_report; backend; monitor } in
  for i = 1 to n_domains - 1 do
    ignore
      (get_ok
         (Tyche.Monitor.create_domain w.monitor ~caller:os ~name:(Printf.sprintf "s%d" i)
            ~kind:Tyche.Domain.Sandbox))
  done;
  w

(* Memory caps overlapping the window, sorted by id; [active] filters. *)
let window_caps ?(active = true) tree =
  List.filter_map
    (fun (ns : Cap.Captree.node_spec) ->
      match ns.ns_resource with
      | Cap.Resource.Memory r
        when Hw.Addr.Range.overlaps r window
             && ((not active) || ns.ns_state = Cap.Captree.Active) ->
        Some (ns.ns_id, r)
      | _ -> None)
    (Cap.Captree.dump tree)

(* Interpret one generated step against the world; failures (rights
   that do not attenuate, a PMP budget refusal, ...) are part of the
   script and happen identically in both copies. *)
let step w (kind, a, b, c, d) =
  let m = w.monitor in
  let tree = Tyche.Monitor.tree m in
  match window_caps tree with
  | [] -> ()
  | caps ->
    let cap, r = List.nth caps (a mod List.length caps) in
    let owner = Option.get (Cap.Captree.owner tree cap) in
    let to_ = b mod n_domains in
    let r = Option.get (Hw.Addr.Range.intersect r window) in
    let base = Hw.Addr.Range.base r and pages = Hw.Addr.Range.len r / page in
    let first = c mod pages in
    let subrange =
      Hw.Addr.Range.make ~base:(base + (first * page)) ~len:((1 + (d mod (pages - first))) * page)
    in
    let rights = rights_choices.(c mod Array.length rights_choices) in
    let cleanup = policy_choices.(d mod Array.length policy_choices) in
    let drop r = Result.map ignore r in
    ignore
      (match kind mod 8 with
      | 0 | 1 | 2 | 3 ->
        drop (Tyche.Monitor.share m ~caller:owner ~cap ~to_ ~rights ~cleanup ~subrange ())
      | 4 -> drop (Tyche.Monitor.grant m ~caller:owner ~cap ~to_ ~rights ~cleanup)
      | 5 -> drop (Tyche.Monitor.carve m ~caller:owner ~cap ~subrange)
      | 6 when pages > 1 ->
        drop (Tyche.Monitor.split m ~caller:owner ~cap ~at:(base + (max 1 first * page)))
      | _ -> Tyche.Monitor.revoke m ~caller:owner ~cap)

(* Everything a canonical detach may touch, in comparable form. *)
let hardware_state arch w =
  let table d =
    match arch with
    | `X86 ->
      let acc = ref [] in
      Option.iter
        (fun ept ->
          Hw.Ept.iter_mappings ept (fun ~gpa ~hpa perm ->
              acc := (gpa, hpa, Hw.Perm.to_string perm) :: !acc))
        (Backend_x86.ept_of w.backend d);
      List.rev !acc
    | `Riscv ->
      List.map
        (fun (r, perm) ->
          (Hw.Addr.Range.base r, Hw.Addr.Range.limit r, Hw.Perm.to_string perm))
        (Backend_riscv.layout_of w.backend d)
  in
  ( List.init n_domains table,
    Hw.Physmem.read w.machine.Hw.Machine.mem window,
    List.sort Int.compare (Hw.Cache.resident_lines_in w.machine.Hw.Machine.cache window) )

(* Revoke [pick] in both copies of the world, once through the pass and
   once through the twin, and compare the hardware. *)
let agree arch script pick =
  let run rewrite =
    let w = small_world arch in
    List.iter (step w) script;
    let m = w.monitor in
    let tree = Tyche.Monitor.tree m in
    match
      List.filter (fun (id, _) -> Cap.Captree.parent tree id <> None)
        (window_caps ~active:false tree)
    with
    | [] -> None
    | victims ->
      let cap, _ = List.nth victims (pick mod List.length victims) in
      (* Residue the clean-ups must erase: bytes in every page, every
         cache line resident. *)
      let mem = w.machine.Hw.Machine.mem and cache = w.machine.Hw.Machine.cache in
      Hw.Physmem.write mem window_base (String.make (window_pages * page) '\x5a');
      for i = 0 to (window_pages * page / Hw.Cache.line_size) - 1 do
        Hw.Cache.touch cache ~tag:os (window_base + (i * Hw.Cache.line_size))
      done;
      Tyche.Monitor.txn_begin m;
      let effects =
        match Cap.Captree.revoke tree cap with
        | Ok effects -> effects
        | Error e -> Alcotest.failf "revoke: %s" (Cap.Captree.error_to_string e)
      in
      let apply eff = (Tyche.Monitor.backend m).Tyche.Backend_intf.apply_effect eff in
      if List.for_all (fun eff -> Result.is_ok (apply eff)) (rewrite tree effects) then begin
        Tyche.Monitor.txn_commit m;
        Some (hardware_state arch w)
      end
      else begin
        Tyche.Monitor.txn_rollback m;
        None
      end
  in
  let twin tree = List.concat_map (trim_detach_reference tree) in
  match (run Tyche.Monitor.canonical_effects, run twin) with
  | Some (ta, ma, ca), Some (tb, mb, cb) ->
    let show entries =
      String.concat " "
        (List.map (fun (a, b, perm) -> Printf.sprintf "%x:%x:%s" a b perm) entries)
    in
    List.iteri
      (fun d (la, lb) ->
        if la <> lb then
          QCheck.Test.fail_reportf "domain %d: %s differs:\n pass: %s\n twin: %s" d
            (match arch with `X86 -> "EPT" | `Riscv -> "PMP layout")
            (show la) (show lb))
      (List.combine ta tb);
    if ma <> mb then QCheck.Test.fail_reportf "zeroed bytes differ";
    if ca <> cb then QCheck.Test.fail_reportf "flushed cache lines differ";
    true
  | None, None -> true
  (* A PMP budget refusal part-way through is order-dependent; the
     final layouts are what must agree. *)
  | _ -> QCheck.assume_fail ()

let gen_script =
  QCheck.Gen.(
    pair
      (list_size (int_range 6 20)
         (map (fun (k, a, b, (c, d)) -> (k, a, b, c, d))
            (quad nat nat nat (pair nat nat))))
      nat)

let prop_canonical arch =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "canonical detach = per-effect twin (%s)"
         (match arch with `X86 -> "x86" | `Riscv -> "riscv"))
    ~count:60
    (QCheck.make gen_script)
    (fun (script, pick) -> agree arch script pick)

(* ---------------- one clean-up pass vs. one clean-up per detach ----------------

   A committed call hands every staged (range, policy) clean-up to
   [Cap.Revocation.apply_all], which zeroes the union of the zeroing
   ranges once, then flushes the union of the flushing ranges once. Its
   reference is [Cap.Revocation.apply] on each staged entry in staging
   order. On random staged lists (overlapping, touching, nested and
   unaligned ranges, all four policies) over memory full of non-zero
   bytes, with every line resident and every page and line tainted, the
   two must leave identical bytes, resident lines and taint; the pass
   may charge no more cycles, and exactly as many when no two zeroing
   ranges and no two flushing ranges overlap or touch. *)

let clean_base = 0x8000
let clean_window = Hw.Addr.Range.make ~base:clean_base ~len:(4 * page)

let cleaned clean staged =
  let m =
    Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores:1 ~mem_size:(Hw.Addr.Range.limit clean_window) ()
  in
  let mem = m.Hw.Machine.mem and cache = m.Hw.Machine.cache and tt = m.Hw.Machine.taint in
  let len = Hw.Addr.Range.len clean_window in
  Hw.Physmem.write mem clean_base (String.init len (fun i -> Char.chr (1 + (i mod 255))));
  let lines = List.init (len / Hw.Cache.line_size) (fun i -> (clean_base / Hw.Cache.line_size) + i) in
  List.iter (fun line -> Hw.Cache.touch cache ~tag:1 (line * Hw.Cache.line_size)) lines;
  Hw.Taint.set_mode tt Hw.Taint.Record;
  ignore (Hw.Taint.taint_pages tt clean_window ~prior:1 ~guarded:true);
  ignore (Hw.Taint.taint_lines tt lines ~prior:1 ~guarded:true);
  Hw.Machine.reset_cycles m;
  clean ~mem ~cache ~counter:m.Hw.Machine.counter staged;
  ( Hw.Physmem.read mem clean_window,
    List.sort Int.compare (Hw.Cache.resident_lines_in cache clean_window),
    Hw.Taint.guarded_residue tt,
    Hw.Machine.cycles m )

let per_entry ~mem ~cache ~counter =
  List.iter (fun (r, cleanup) -> Cap.Revocation.apply cleanup ~mem ~cache ~counter r)

(* Endpoints mostly on a 512-byte grid, so ranges often touch, nest and
   overlap; a third are pushed off it to an arbitrary byte. *)
let gen_staged =
  QCheck.Gen.(
    let point =
      map2
        (fun cell jitter -> (cell * 512) + jitter)
        (int_bound 31)
        (frequency [ (2, return 0); (1, int_bound 511) ])
    in
    list_size (int_bound 8)
      (map
         (fun ((a, b), policy) ->
           let lo = min a b and hi = max a b + 1 in
           (Hw.Addr.Range.of_bounds ~lo:(clean_base + lo) ~hi:(clean_base + hi), policy))
         (pair (pair point point) (oneofa policy_choices))))

(* No two of the ranges [want] selects overlap or touch: sorted by base,
   each ends before the next begins. *)
let separated want staged =
  let rec go = function
    | a :: (b :: _ as rest) -> Hw.Addr.Range.limit a < Hw.Addr.Range.base b && go rest
    | _ -> true
  in
  go
    (List.sort Hw.Addr.Range.compare
       (List.filter_map (fun (r, c) -> if want c then Some r else None) staged))

let prop_clean_once =
  QCheck.Test.make ~name:"one clean-up pass = apply per staged entry" ~count:400
    (QCheck.make
       ~print:
         (QCheck.Print.list (fun (r, c) ->
              Format.asprintf "%a %s" Hw.Addr.Range.pp r (Cap.Revocation.to_string c)))
       gen_staged)
    (fun staged ->
      let ma, la, ta, ca = cleaned Cap.Revocation.apply_all staged in
      let mb, lb, tb, cb = cleaned per_entry staged in
      if ma <> mb then QCheck.Test.fail_reportf "bytes differ";
      if la <> lb then QCheck.Test.fail_reportf "resident lines differ";
      if ta <> tb then QCheck.Test.fail_reportf "taint differs";
      if ca > cb then QCheck.Test.fail_reportf "pass charges %d cycles, reference %d" ca cb;
      if separated Cap.Revocation.zeroes_memory staged
         && separated Cap.Revocation.flushes_cache staged
         && ca <> cb
      then QCheck.Test.fail_reportf "separated ranges: pass %d cycles, reference %d" ca cb;
      true)

let () =
  let rand = Random.State.make [| 0x7c4e |] in
  Alcotest.run "differential"
    [
      ("backends", [ Alcotest.test_case "x86 vs riscv replay" `Quick test_differential ]);
      ( "sharding",
        [ Alcotest.test_case "1 shard vs 4 shards replay" `Quick test_sharded_differential ] );
      ( "canonical-detach",
        [ QCheck_alcotest.to_alcotest ~rand (prop_canonical `X86);
          QCheck_alcotest.to_alcotest ~rand (prop_canonical `Riscv);
          QCheck_alcotest.to_alcotest ~rand prop_clean_once ] );
    ]
