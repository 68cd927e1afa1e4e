(* Crash-restart chaos: drive a randomized mixed API workload against a
   persistent monitor, kill it at randomized fault points (torn WAL
   appends, lost fsyncs, torn snapshot/segment writes, torn manifest
   swaps, un-fsynced directory renames), recover onto a fresh machine,
   and assert the recovered state is byte-identical to the shadow
   history at the recovered sequence number — and never older than the
   group-commit acknowledgement floor (acked ops are never lost;
   unacked batched ops may drop but never tear). Runs the matrix over
   both store backends (mem and file). The whole schedule is
   deterministic from one seed (TYCHE_FAULT_SEED to replay); each
   arch/backend cell runs twice and the two transcripts must match
   exactly.

   Plain executable (exit 1 on failure): it rides `dune runtest` with a
   short run and `dune build @chaos` with the full-length one
   (TYCHE_CHAOS_OPS). *)

let ( let* ) = Result.bind
let _ = ( let* )

let base_seed = Testkit.chaos_seed ~default:0xC4A5

let ops_per_run =
  match Sys.getenv_opt "TYCHE_CHAOS_OPS" with
  | Some s -> int_of_string s
  | None -> 400

let () =
  Testkit.chaos_banner ~suite:"persist" ~seed:base_seed
    ~extra:(Printf.sprintf ", %d ops/run (TYCHE_CHAOS_OPS)" ops_per_run)
    ()

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline (Testkit.chaos_replay_line ~suite:"persist" ~seed:base_seed);
      prerr_endline ("FAIL: " ^ s);
      exit 1)
    fmt

let firmware = "firmware-v1"
let loader_blob = "loader-v1"
let monitor_image = "tyche-monitor-image-v1"
let os = Tyche.Domain.initial

type arch = X86 | Riscv

let arch_name = function X86 -> "x86" | Riscv -> "riscv"

type backend_kind = Mem | File

let backend_name = function Mem -> "mem" | File -> "file"

(* File-backend runs each get a private scratch directory so the two
   transcript-compared runs start from identical (empty) media, and
   concurrent chaos processes never touch each other's stores. *)
let fresh_store = function
  | Mem -> (Persist.Store.mem (), fun () -> ())
  | File ->
    let dir, cleanup = Testkit.temp_store_dir "tyche-chaos-" in
    (Persist.Store.file ~dir, cleanup)

(* A machine + backend + monitor-range triple; recovery builds a fresh
   one each time the "power" comes back. *)
let fresh_target arch =
  match arch with
  | X86 ->
    let machine = Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores:4 ~mem_size:(16 * 1024 * 1024) () in
    let rng = Crypto.Rng.create ~seed:0x99L in
    let tpm = Rot.Tpm.create rng in
    let br = Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image in
    (machine, Backend_x86.create machine (), tpm, rng, br.Rot.Boot.monitor_range)
  | Riscv ->
    let machine = Hw.Machine.create ~arch:Hw.Cpu.Riscv64 ~cores:2 ~mem_size:(16 * 1024 * 1024) () in
    let rng = Crypto.Rng.create ~seed:0x98L in
    let tpm = Rot.Tpm.create rng in
    let br = Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image in
    let backend = Backend_riscv.create machine ~monitor_range:br.Rot.Boot.monitor_range () in
    (machine, backend, tpm, rng, br.Rot.Boot.monitor_range)

(* Everything the durability layer promises to preserve, digested so the
   per-seq shadow history stays small. The dump carries parent links,
   not child sets: the fsck after every recovery checks that each child
   set agrees with them ([Captree.check_invariants]). *)
let fingerprint m =
  let tree = Tyche.Monitor.tree m in
  let doms =
    List.map
      (fun d ->
        ( Tyche.Domain.id d,
          Tyche.Domain.name d,
          Tyche.Domain.kind d,
          Tyche.Domain.created_by d,
          Tyche.Domain.is_sealed d,
          Tyche.Domain.entry_point d,
          Tyche.Domain.measured_ranges d,
          Tyche.Domain.flush_on_transition d,
          Option.map Crypto.Sha256.to_raw (Tyche.Domain.measurement d) ))
      (Tyche.Monitor.domains m)
  in
  let ncores = Array.length (Tyche.Monitor.machine m).Hw.Machine.cores in
  let sched =
    List.init ncores (fun core ->
        (Tyche.Monitor.current_domain m ~core, Tyche.Monitor.call_depth m ~core))
  in
  (Cap.Captree.dump tree, Cap.Captree.next_id tree, doms, sched)

let seq_of m =
  match Tyche.Monitor.persist_seq m with
  | Some s -> s
  | None -> fail "persistence disarmed mid-run"

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))

let rights_pool = [ Cap.Rights.full; Cap.Rights.rw; Cap.Rights.read_only; Cap.Rights.rx ]

let cleanup_pool =
  [ Cap.Revocation.Keep; Cap.Revocation.Zero; Cap.Revocation.Flush_cache;
    Cap.Revocation.Zero_and_flush ]

let kind_pool = [ Tyche.Domain.Sandbox; Tyche.Domain.Enclave; Tyche.Domain.Confidential_vm ]

let mem_caps m d =
  List.filter
    (fun c ->
      match Cap.Captree.resource (Tyche.Monitor.tree m) c with
      | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.len r >= 2 * Hw.Addr.page_size
      | _ -> false)
    (Tyche.Monitor.caps_of m d)

(* One randomized API call. Failures are legitimate outcomes (denied,
   sealed, unknown...) — they commit nothing and log nothing. *)
let random_op rng m ncores =
  let domain_ids = List.map Tyche.Domain.id (Tyche.Monitor.domains m) in
  (* Bias toward domain 0: it owns most capabilities, so its calls
     actually commit (and therefore log) instead of being denied. *)
  let caller =
    if Random.State.bool rng then os else Option.value ~default:os (pick rng domain_ids)
  in
  let any_cap () = pick rng (Tyche.Monitor.caps_of m caller) in
  let core () = Random.State.int rng ncores in
  match Random.State.int rng 14 with
  | 0 ->
    ignore
      (Tyche.Monitor.create_domain m ~caller
         ~name:(Printf.sprintf "d%d" (Random.State.int rng 10000))
         ~kind:(Option.get (pick rng kind_pool)))
  | 1 -> (
    match (any_cap (), pick rng domain_ids) with
    | Some cap, Some to_ ->
      ignore
        (Tyche.Monitor.share m ~caller ~cap ~to_
           ~rights:(Option.get (pick rng rights_pool))
           ~cleanup:(Option.get (pick rng cleanup_pool))
           ())
    | _ -> ())
  | 2 -> (
    match (any_cap (), pick rng domain_ids) with
    | Some cap, Some to_ ->
      ignore
        (Tyche.Monitor.grant m ~caller ~cap ~to_
           ~rights:(Option.get (pick rng rights_pool))
           ~cleanup:(Option.get (pick rng cleanup_pool)))
    | _ -> ())
  | 3 -> (
    match pick rng (mem_caps m caller) with
    | Some cap -> (
      match Cap.Captree.resource (Tyche.Monitor.tree m) cap with
      | Some (Cap.Resource.Memory r) ->
        let pages = Hw.Addr.Range.len r / Hw.Addr.page_size in
        let at =
          Hw.Addr.Range.base r
          + ((1 + Random.State.int rng (pages - 1)) * Hw.Addr.page_size)
        in
        ignore (Tyche.Monitor.split m ~caller ~cap ~at)
      | _ -> ())
    | None -> ())
  | 4 -> (
    match pick rng (mem_caps m caller) with
    | Some cap -> (
      match Cap.Captree.resource (Tyche.Monitor.tree m) cap with
      | Some (Cap.Resource.Memory r) ->
        let pages = Hw.Addr.Range.len r / Hw.Addr.page_size in
        let off = Random.State.int rng (pages - 1) * Hw.Addr.page_size in
        let sub =
          Hw.Addr.Range.make ~base:(Hw.Addr.Range.base r + off) ~len:Hw.Addr.page_size
        in
        ignore (Tyche.Monitor.carve m ~caller ~cap ~subrange:sub)
      | _ -> ())
    | None -> ())
  | 5 -> (
    match any_cap () with
    | Some cap -> ignore (Tyche.Monitor.revoke m ~caller ~cap)
    | None -> ())
  | 6 -> (
    match pick rng domain_ids with
    | Some domain ->
      ignore
        (Tyche.Monitor.set_entry_point m ~caller ~domain
           (Random.State.int rng 0x100000))
    | None -> ())
  | 7 -> (
    match pick rng domain_ids with
    | Some domain ->
      ignore (Tyche.Monitor.set_flush_policy m ~caller ~domain (Random.State.bool rng))
    | None -> ())
  | 8 -> (
    (* Measure a page the domain actually holds, when it holds one. *)
    match pick rng domain_ids with
    | Some domain -> (
      match pick rng (mem_caps m domain) with
      | Some cap -> (
        match Cap.Captree.resource (Tyche.Monitor.tree m) cap with
        | Some (Cap.Resource.Memory r) ->
          let sub =
            Hw.Addr.Range.make ~base:(Hw.Addr.Range.base r) ~len:Hw.Addr.page_size
          in
          ignore (Tyche.Monitor.mark_measured m ~caller ~domain sub)
        | _ -> ())
      | None -> ())
    | None -> ())
  | 9 -> (
    match pick rng domain_ids with
    | Some domain -> ignore (Tyche.Monitor.seal m ~caller ~domain)
    | None -> ())
  | 10 -> (
    match pick rng domain_ids with
    | Some target -> ignore (Tyche.Monitor.call m ~core:(core ()) ~target)
    | None -> ())
  | 11 -> ignore (Tyche.Monitor.ret m ~core:(core ()))
  | 12 -> ignore (Tyche.Monitor.timer_tick m ~core:(core ()))
  | _ -> (
    match pick rng domain_ids with
    | Some domain when domain <> os ->
      ignore (Tyche.Monitor.destroy_domain m ~caller ~domain)
    | _ -> ())

let crash_points =
  [| "wal.append"; "wal.fsync"; "snapshot.write"; "segment.write";
     "manifest.swap"; "store.dir_fsync" |]

(* The checkpoint-window points only have a chance to fire while a
   checkpoint is running, which the random schedule rarely lands on —
   so the loop also forces periodic checkpoints under an armed plan. *)
let ckpt_points = [| "segment.write"; "manifest.swap"; "store.dir_fsync" |]

(* One full chaos run. Returns a transcript digest: the crash schedule
   that actually fired plus the final state fingerprint — two runs from
   the same seed must produce identical transcripts. *)
let run arch bk ~ops ~seed =
  Fault.reset_counters ();
  let who = arch_name arch ^ "/" ^ backend_name bk in
  let rng =
    Random.State.make [| seed; Hashtbl.hash (arch_name arch); Hashtbl.hash (backend_name bk) |]
  in
  let machine0, backend0, tpm0, rng0, monitor_range = fresh_target arch in
  (* x86 keeps the per-op-fsync discipline; riscv runs a real group
     commit (batches of 4) so crashes land on unacknowledged batches. *)
  let fsync_every = match arch with X86 -> 1 | Riscv -> 4 in
  let m =
    ref
      (Tyche.Monitor.boot machine0 ~backend:backend0 ~tpm:tpm0 ~rng:rng0 ~monitor_range)
  in
  let store, cleanup = fresh_store bk in
  Tyche.Monitor.enable_persistence !m ~store ~snapshot_every:50 ~fsync_every ();
  let ncores = match arch with X86 -> 4 | Riscv -> 2 in
  (* Shadow history: state digest per committed-operation index. *)
  let history = Hashtbl.create 1024 in
  Hashtbl.replace history 0 (fingerprint !m);
  let last_seq = ref 0 in
  (* The group-commit acknowledgement floor: every op at or below it was
     reported durable, so no recovery may ever land before it. *)
  let acked = ref 0 in
  let note_acked () =
    match Tyche.Monitor.durable_seq !m with
    | Some d -> if d > !acked then acked := d
    | None -> ()
  in
  let record_progress () =
    let seq = seq_of !m in
    if seq > !last_seq then begin
      if seq <> !last_seq + 1 then fail "%s: seq jumped %d -> %d" who !last_seq seq;
      Hashtbl.replace history seq (fingerprint !m);
      last_seq := seq
    end;
    note_acked ()
  in
  let crashes = ref [] in
  let recover_and_check () =
    match
      let machine, backend, tpm, rng', _ = fresh_target arch in
      Tyche.Monitor.recover machine ~store ~backend ~tpm ~rng:rng' ~monitor_range
        ~snapshot_every:50 ~fsync_every
    with
    | Error e -> fail "%s: recovery failed: %s" who e
    | Ok (m2, report) ->
      let rseq = report.Tyche.Monitor.rr_seq in
      if rseq > !last_seq then
        fail "%s: recovered seq %d beyond history %d" who rseq !last_seq;
      if rseq < !acked then
        fail "%s: acknowledged op lost: recovered seq %d < acked floor %d (%s)" who rseq
          !acked
          (Format.asprintf "%a" Tyche.Monitor.pp_recovery_report report);
      (match Hashtbl.find_opt history rseq with
      | None -> fail "%s: no shadow state for recovered seq %d" who rseq
      | Some expected ->
        let got = fingerprint m2 in
        if got <> expected then begin
          let (d1, n1, dm1, s1) = expected and (d2, n2, dm2, s2) = got in
          Printf.eprintf "DIVERGE seq %d: dump=%b next_id=%b(%d/%d) doms=%b sched=%b\n"
            rseq (d1 = d2) (n1 = n2) n1 n2 (dm1 = dm2) (s1 = s2);
          if d1 <> d2 then begin
            Printf.eprintf "  shadow nodes %d, recovered %d\n" (List.length d1) (List.length d2);
            (try List.iter2 (fun (a : Cap.Captree.node_spec) b ->
              if a <> b then
                Printf.eprintf "  cap %d vs %d: res=%b rights=%b owner=%d/%d cleanup=%b parent=%b origin=%b state=%b\n"
                  a.ns_id b.Cap.Captree.ns_id (a.ns_resource = b.ns_resource) (a.ns_rights = b.ns_rights)
                  a.ns_owner b.ns_owner (a.ns_cleanup = b.ns_cleanup) (a.ns_parent = b.ns_parent)
                  (a.ns_origin = b.ns_origin) (a.ns_state = b.ns_state)) d1 d2
             with Invalid_argument _ -> ())
          end;
          if dm1 <> dm2 then
            List.iter2 (fun a b -> if a <> b then
              let (i,_,_,_,_,_,_,_,_) = a in Printf.eprintf "  domain %d differs\n" i) dm1 dm2;
          fail "%s: recovered state diverges from shadow at seq %d (%a)" who
            rseq
            (fun () r -> Format.asprintf "%a" Tyche.Monitor.pp_recovery_report r)
            report
        end);
      let fr = Tyche.Fsck.check m2 in
      if not (Tyche.Fsck.ok fr) then
        fail "%s: fsck after recovery at seq %d: %s" who rseq
          (Format.asprintf "%a" Tyche.Fsck.pp fr);
      (* Ops beyond the recovered seq are lost future: forget them. *)
      Hashtbl.iter (fun s _ -> if s > rseq then Hashtbl.remove history s) (Hashtbl.copy history);
      last_seq := rseq;
      (* Recovery closes with a checkpoint: everything replayed is
         durable again, so the floor resets to the recovered seq. *)
      acked := rseq;
      m := m2
  in
  for i = 1 to ops do
    let crash_plan =
      if Random.State.int rng 10 = 0 then
        Some crash_points.(Random.State.int rng (Array.length crash_points))
      else None
    in
    let exec () = random_op rng !m ncores in
    (match
       match crash_plan with
       | Some point -> Fault.with_plan (Fault.nth point 1) exec
       | None -> exec ()
     with
    | () -> record_progress ()
    | exception Persist.Store.Crash point ->
      (* The op committed in memory before the log write died; its state
         is the newest shadow entry iff the seq advanced. *)
      record_progress ();
      crashes := (i, point) :: !crashes;
      recover_and_check ());
    if i mod 45 = 0 then begin
      (* Force a checkpoint under an armed checkpoint-window fault so
         crashes land mid-segment-write, mid-manifest-swap, and inside
         the rename-durability window, on every backend. *)
      let point = ckpt_points.(Random.State.int rng (Array.length ckpt_points)) in
      match Fault.with_plan (Fault.nth point 1) (fun () -> Tyche.Monitor.checkpoint !m) with
      | () -> note_acked ()
      | exception Persist.Store.Crash p ->
        crashes := (i, "ckpt:" ^ p) :: !crashes;
        recover_and_check ()
    end
  done;
  (* Final clean restart: everything still durable must round-trip, and
     a fresh attestation body over the recovered tree must match one
     taken just before the "shutdown". *)
  Tyche.Monitor.checkpoint !m;
  let baseline =
    (* The signer holds 2^6 one-time keys and a long run can leave more
       live domains than that; attest a bounded sample (the recovered
       monitor re-attests each under the same nonce in fsck). *)
    let sample = List.filteri (fun i _ -> i < 12) (Tyche.Monitor.domains !m) in
    List.filter_map
      (fun d ->
        let id = Tyche.Domain.id d in
        match Tyche.Monitor.attest !m ~caller:os ~domain:id ~nonce:"chaos-final" with
        | Ok a -> Some (id, a)
        | Error _ -> None)
      sample
  in
  recover_and_check ();
  if seq_of !m <> !last_seq then fail "%s: clean restart lost operations" who;
  let fr = Tyche.Fsck.check ~baseline !m in
  if not (Tyche.Fsck.ok fr) then
    fail "%s: final fsck with attest baseline: %s" who
      (Format.asprintf "%a" Tyche.Fsck.pp fr);
  if List.length !crashes < 3 then
    fail "%s: only %d crashes fired — chaos schedule too tame" who
      (List.length !crashes);
  Printf.printf "  %s: %d ops, %d crashes, final seq %d\n%!" who ops
    (List.length !crashes) !last_seq;
  let transcript = (List.rev !crashes, fingerprint !m, !last_seq) in
  cleanup ();
  transcript

let () =
  List.iter
    (fun (arch, bk) ->
      Printf.printf "chaos (%s, %s store):\n%!" (arch_name arch) (backend_name bk);
      let a = run arch bk ~ops:ops_per_run ~seed:base_seed in
      let b = run arch bk ~ops:ops_per_run ~seed:base_seed in
      if a <> b then
        fail "%s/%s: two runs from seed %d diverged" (arch_name arch) (backend_name bk)
          base_seed;
      (* Torn writes and mid-op kills unwound through every
         instrumented layer; the span accounting must still balance. *)
      Testkit.chaos_check_obs ~suite:"persist" ~seed:base_seed
        ~where:(arch_name arch ^ "/" ^ backend_name bk))
    [ (X86, Mem); (X86, File); (Riscv, Mem); (Riscv, File) ];
  print_endline "persist chaos: all runs recovered consistently"
