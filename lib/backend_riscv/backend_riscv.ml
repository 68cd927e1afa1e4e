type alloc_strategy = Merge_adjacent | First_fit

type state = {
  machine : Hw.Machine.t;
  monitor_range : Hw.Addr.Range.t;
  strategy : alloc_strategy;
  layouts : (Tyche.Domain.id, (Hw.Addr.Range.t * Hw.Perm.t) list ref) Hashtbl.t;
  domain_devices : (Tyche.Domain.id, int list ref) Hashtbl.t;
  core_domain : int array;
  mutable transitions : int;
  mutable pmp_writes : int;
  (* Hardware undo journal. While [journaling], every mutation of
     backend or hardware state (layouts, device lists, PMP files, IOMMU
     windows, remap table, core context) prepends its inverse;
     destructive clean-ups (memory zeroing) go to [deferred] and only
     run at commit, so a rollback never has to un-zero memory. *)
  mutable journal : (unit -> unit) list;
  mutable journaling : bool;
  mutable deferred : (unit -> unit) list;
}

(* Associates the opaque backend records handed to the monitor with
   their internal state, for test/bench introspection. Keyed weakly: a
   plain list would pin every machine ever booted (its whole physical
   memory) for the life of the process. *)
let registry : (Tyche.Backend_intf.t, state) Ephemeron.K1.Bucket.t =
  Ephemeron.K1.Bucket.make ()

let state_of backend =
  match Ephemeron.K1.Bucket.find registry backend with
  | Some s -> s
  | None -> invalid_arg "Backend_riscv: not a backend created by this module"

(* --- transactions --------------------------------------------------- *)

(* Call sites guard with [if s.journaling then record s (fun () -> ...)]
   so the fault-free path allocates no closures. *)
let record s undo = s.journal <- undo :: s.journal

(* Stage a destructive clean-up: run at commit inside a transaction,
   immediately outside one (boot-time paths). *)
let defer s cleanup = if s.journaling then s.deferred <- cleanup :: s.deferred else cleanup ()

let txn_begin s =
  if s.journaling then invalid_arg "Backend_riscv.txn_begin: transaction already open";
  s.journal <- [];
  s.deferred <- [];
  s.journaling <- true;
  let transitions = s.transitions and pmp_writes = s.pmp_writes in
  record s (fun () ->
    s.transitions <- transitions;
    s.pmp_writes <- pmp_writes)

let txn_commit s =
  let cleanups = List.rev s.deferred in
  s.journaling <- false;
  s.journal <- [];
  s.deferred <- [];
  List.iter (fun f -> f ()) cleanups

let txn_rollback s =
  let undos = s.journal in
  s.journaling <- false;
  s.journal <- [];
  s.deferred <- [];
  (* Undo closures re-execute PMP/IOMMU writes; they must not trip the
     very fault plan that caused the rollback. *)
  Fault.suspend (fun () -> List.iter (fun f -> f ()) undos)

let fault_error = function
  | Fault.Injected { point; trip } ->
    Printf.sprintf "fault injected at %s (trip %d)" point trip
  | e -> raise e

let usable_entries machine =
  (* Entry 0 is locked over the monitor image on every hart. *)
  Hw.Pmp.entry_count (Hw.Cpu.pmp machine.Hw.Machine.cores.(0)) - 1

let layout_ref s domain =
  match Hashtbl.find_opt s.layouts domain with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add s.layouts domain l;
    l

let devices_of s domain =
  match Hashtbl.find_opt s.domain_devices domain with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add s.domain_devices domain l;
    l

let journal_layout s domain =
  if s.journaling then begin
    let l = layout_ref s domain in
    let old = !l in
    record s (fun () -> l := old)
  end

let journal_devices s domain =
  if s.journaling then begin
    let l = devices_of s domain in
    let old = !l in
    record s (fun () -> l := old)
  end

let journal_iommu s device =
  if s.journaling then begin
    let iommu = s.machine.Hw.Machine.iommu in
    let ws = Hw.Iommu.windows iommu ~device in
    record s (fun () -> Hw.Iommu.set_windows iommu ~device ws)
  end

(* Keep layouts sorted by base. Merge_adjacent folds touching ranges of
   equal permission into a single PMP segment — even across a range of
   another permission lying between them — so the layout is each
   permission's union, ordered by base, length, then strength: a
   function of what every permission covers, never of the order the
   pieces arrived in. Where two holdings overlap, the subsuming
   permission comes first, so the PMP's first match grants it. *)
let strength (p : Hw.Perm.t) =
  Bool.to_int p.read + (2 * Bool.to_int p.write) + (4 * Bool.to_int p.exec)

let normalize strategy pieces =
  let sorted =
    List.sort (fun (a, _) (b, _) -> Hw.Addr.Range.compare a b) pieces
  in
  match strategy with
  | First_fit -> sorted
  | Merge_adjacent ->
    (* The last run of each permission stays open while pieces touch it. *)
    let open_runs = ref [] and out = ref [] in
    List.iter
      (fun (r, p) ->
        match List.find_opt (fun (q, _) -> Hw.Perm.equal p q) !open_runs with
        | Some (_, run) when Hw.Addr.Range.base r <= Hw.Addr.Range.limit !run ->
          run :=
            Hw.Addr.Range.of_bounds ~lo:(Hw.Addr.Range.base !run)
              ~hi:(max (Hw.Addr.Range.limit !run) (Hw.Addr.Range.limit r))
        | _ ->
          let run = ref r in
          open_runs := (p, run) :: List.filter (fun (q, _) -> not (Hw.Perm.equal p q)) !open_runs;
          out := (run, p) :: !out)
      sorted;
    List.rev_map (fun (run, p) -> (!run, p)) !out
    |> List.sort (fun (a, p) (b, q) ->
           match Hw.Addr.Range.compare a b with
           | 0 -> Int.compare (strength q) (strength p)
           | c -> c)

let layout_add s domain range perm =
  let l = layout_ref s domain in
  l := normalize s.strategy ((range, perm) :: !l)

let layout_remove s domain range =
  let l = layout_ref s domain in
  l :=
    normalize s.strategy
      (List.concat_map
         (fun (r, p) ->
           List.map (fun piece -> (piece, p)) (Hw.Addr.Range.subtract r range))
         !l)

(* Hoisted span handles: one registry lookup per process, not per
   hardware write (see {!Obs.Profile.handle}). *)
let h_pmp_reprogram = Obs.Profile.handle "pmp.reprogram"
let h_iommu_grant = Obs.Profile.handle "iommu.grant"
let h_iommu_revoke = Obs.Profile.handle "iommu.revoke"
let bk_riscv = Obs.intern "riscv-pmp"

let reprogram s ~core domain =
  Obs.Profile.span_h ~domain ~backend:bk_riscv h_pmp_reprogram @@ fun () ->
  let pmp = Hw.Cpu.pmp core in
  let layout = !(layout_ref s domain) in
  (* The budget check precedes every PMP write, so genuine exhaustion
     fails before hardware is touched; only an injected mid-write fault
     can leave the file half-programmed, and the journal covers that. *)
  if List.length layout > usable_entries s.machine then
    Error
      (Printf.sprintf "domain %d needs %d PMP entries but only %d are usable" domain
         (List.length layout) (usable_entries s.machine))
  else begin
    if s.journaling then begin
      let snapshot =
        List.filter_map
          (fun (i, range, perm, locked) -> if locked then None else Some (i, range, perm))
          (Hw.Pmp.entries pmp)
      in
      record s (fun () ->
        List.iter
          (fun (i, _, _, locked) -> if not locked then Hw.Pmp.clear pmp ~index:i)
          (Hw.Pmp.entries pmp);
        List.iter
          (fun (i, range, perm) -> Hw.Pmp.set pmp ~index:i range perm ~locked:false)
          snapshot)
    end;
    (* Clear every non-locked entry, then program the layout. *)
    List.iter
      (fun (i, _, _, locked) ->
        if not locked then begin
          Hw.Pmp.clear pmp ~index:i;
          s.pmp_writes <- s.pmp_writes + 1
        end)
      (Hw.Pmp.entries pmp);
    List.iter
      (fun (range, perm) ->
        match Hw.Pmp.find_free pmp with
        | Some index ->
          Hw.Pmp.set pmp ~index range perm ~locked:false;
          s.pmp_writes <- s.pmp_writes + 1
        | None -> assert false (* guarded by the budget check above *))
      layout;
    Ok ()
  end

let reprogram_running s domain =
  let n = Array.length s.core_domain in
  let rec go core_id =
    if core_id >= n then Ok ()
    else if s.core_domain.(core_id) = domain then
      match reprogram s ~core:(Hw.Machine.core s.machine core_id) domain with
      | Ok () -> go (core_id + 1)
      | Error _ as e -> e
    else go (core_id + 1)
  in
  go 0

let dma_perm perm = Hw.Perm.inter perm Hw.Perm.rw

let apply_effect_unsafe s = function
  | Cap.Captree.Attach { domain; resource = Cap.Resource.Memory r; perm } ->
    journal_layout s domain;
    layout_add s domain r perm;
    List.iter
      (fun bdf ->
        journal_iommu s bdf;
        Hw.Iommu.grant s.machine.Hw.Machine.iommu ~device:bdf r (dma_perm perm))
      !(devices_of s domain);
    reprogram_running s domain
  | Cap.Captree.Detach { domain; resource = Cap.Resource.Memory r; cleanup } ->
    (* Taint the victim's residue before any clean-up runs: the
       deferred Revocation.apply erases exactly the taint the policy
       promises to clean, so surviving taint = a missing clean-up (see
       Hw.Taint). No TLB surface on RISC-V — PMP checks every access. *)
    let tt = s.machine.Hw.Machine.taint in
    let u_pages =
      Hw.Taint.taint_pages tt r ~prior:domain
        ~guarded:(Cap.Revocation.zeroes_memory cleanup)
    in
    let u_lines =
      Hw.Taint.taint_lines tt
        (Hw.Cache.resident_lines_in s.machine.Hw.Machine.cache r)
        ~prior:domain
        ~guarded:(Cap.Revocation.flushes_cache cleanup)
    in
    if s.journaling then
      record s (fun () ->
        Hw.Taint.undo tt u_lines;
        Hw.Taint.undo tt u_pages);
    journal_layout s domain;
    layout_remove s domain r;
    List.iter
      (fun bdf ->
        journal_iommu s bdf;
        Hw.Iommu.revoke_range s.machine.Hw.Machine.iommu ~device:bdf r)
      !(devices_of s domain);
    (match reprogram_running s domain with
    | Error _ as e -> e
    | Ok () ->
      (* Zeroing is destructive and has no inverse: stage it so a later
         failure in the same transaction never needs to un-zero. *)
      defer s (fun () ->
        Cap.Revocation.apply cleanup ~mem:s.machine.Hw.Machine.mem
          ~cache:s.machine.Hw.Machine.cache ~counter:s.machine.Hw.Machine.counter r);
      Ok ())
  | Cap.Captree.Attach { domain; resource = Cap.Resource.Device bdf; _ } ->
    Obs.Profile.span_h ~domain ~backend:bk_riscv h_iommu_grant @@ fun () ->
    journal_devices s domain;
    let devices = devices_of s domain in
    devices := bdf :: !devices;
    journal_iommu s bdf;
    List.iter
      (fun (r, perm) ->
        Hw.Iommu.grant s.machine.Hw.Machine.iommu ~device:bdf r (dma_perm perm))
      !(layout_ref s domain);
    Ok ()
  | Cap.Captree.Detach { domain; resource = Cap.Resource.Device bdf; _ } ->
    Obs.Profile.span_h ~domain ~backend:bk_riscv h_iommu_revoke @@ fun () ->
    journal_iommu s bdf;
    if s.journaling then begin
      let interrupts = s.machine.Hw.Machine.interrupts in
      let vectors = Hw.Interrupt.permitted interrupts ~device:bdf in
      record s (fun () ->
        List.iter (fun vector -> Hw.Interrupt.permit interrupts ~device:bdf ~vector) vectors)
    end;
    Hw.Iommu.revoke_all s.machine.Hw.Machine.iommu ~device:bdf;
    Hw.Interrupt.revoke_device s.machine.Hw.Machine.interrupts ~device:bdf;
    journal_devices s domain;
    let devices = devices_of s domain in
    devices := List.filter (fun d -> d <> bdf) !devices;
    Ok ()
  | Cap.Captree.Attach { resource = Cap.Resource.Cpu_core _; _ }
  | Cap.Captree.Detach { resource = Cap.Resource.Cpu_core _; _ } ->
    Ok ()

let apply_effect s eff =
  try apply_effect_unsafe s eff with Fault.Injected _ as e -> Error (fault_error e)

let validate_attach s d resource =
  match resource with
  | Cap.Resource.Memory r ->
    let domain = Tyche.Domain.id d in
    let simulated = normalize s.strategy ((r, Hw.Perm.rwx) :: !(layout_ref s domain)) in
    (* Permissions may differ from rwx, preventing some merges; count
       conservatively with the actual perm when known is impossible
       here, so recount with the pessimistic assumption too. *)
    let worst = List.length !(layout_ref s domain) + 1 in
    let best = List.length simulated in
    let budget = usable_entries s.machine in
    if min best worst > budget then
      Error
        (Printf.sprintf
           "PMP layout for domain %d would need %d entries (budget %d): \
            lay the domain out contiguously"
           domain (min best worst) budget)
    else Ok ()
  | Cap.Resource.Cpu_core _ | Cap.Resource.Device _ -> Ok ()

let mode_for d =
  if Tyche.Domain.id d = Tyche.Domain.initial then Hw.Cpu.Riscv Hw.Cpu.S
  else Hw.Cpu.Riscv Hw.Cpu.U

let enter s ~core d =
  let domain = Tyche.Domain.id d in
  match reprogram s ~core domain with
  | Error _ as e -> e
  | Ok () ->
    let core_id = Hw.Cpu.id core in
    if s.journaling then begin
      let old_asid = Hw.Cpu.asid core
      and old_mode = Hw.Cpu.mode core
      and old_domain = s.core_domain.(core_id) in
      record s (fun () ->
        Hw.Cpu.set_asid core old_asid;
        Hw.Cpu.set_mode core old_mode;
        s.core_domain.(core_id) <- old_domain)
    end;
    Hw.Cpu.set_asid core (Tyche.Domain.asid d);
    Hw.Cpu.set_mode core (mode_for d);
    s.core_domain.(core_id) <- domain;
    Ok ()

let transition s ~core ~from_ ~to_ ~flush_microarch =
  let counter = s.machine.Hw.Machine.counter in
  Hw.Cycles.charge counter Hw.Cycles.Cost.ecall_machine_mode;
  if flush_microarch then begin
    (* The outgoing domain's resident lines are promised gone: taint
       them guarded, then flush — surviving taint means the flush
       regressed (see Hw.Taint). *)
    let tt = s.machine.Hw.Machine.taint in
    let from_id = Tyche.Domain.id from_ in
    let u_lines =
      Hw.Taint.taint_lines tt
        (Hw.Cache.lines_of_tag s.machine.Hw.Machine.cache ~tag:from_id)
        ~prior:from_id ~guarded:true
    in
    if s.journaling then record s (fun () -> Hw.Taint.undo tt u_lines);
    Hw.Cache.flush_all s.machine.Hw.Machine.cache
  end;
  match (try enter s ~core to_ with Fault.Injected _ as e -> Error (fault_error e)) with
  | Error _ as e -> e
  | Ok () ->
    s.transitions <- s.transitions + 1;
    (* PMP reprogramming always traps to M-mode: there is no exit-less
       path on this backend, which is the cost the paper accepts for the
       generality of running on PMP-only hardware. *)
    Ok Tyche.Backend_intf.Trap_roundtrip

let domain_reaches s d range =
  List.exists (fun (r, _) -> Hw.Addr.Range.overlaps r range)
    !(layout_ref s (Tyche.Domain.id d))

let create machine ~monitor_range ?(alloc_strategy = Merge_adjacent) () =
  if machine.Hw.Machine.arch <> Hw.Cpu.Riscv64 then
    invalid_arg "Backend_riscv.create: machine is not RISC-V";
  let s =
    { machine;
      monitor_range;
      strategy = alloc_strategy;
      layouts = Hashtbl.create 16;
      domain_devices = Hashtbl.create 16;
      core_domain = Array.make (Array.length machine.Hw.Machine.cores) Tyche.Domain.initial;
      transitions = 0;
      pmp_writes = 0;
      journal = [];
      journaling = false;
      deferred = [] }
  in
  (* Lock the monitor's image out of reach on every hart. *)
  Array.iter
    (fun core ->
      Hw.Pmp.set (Hw.Cpu.pmp core) ~index:0 s.monitor_range Hw.Perm.none ~locked:true)
    machine.Hw.Machine.cores;
  let backend =
    { Tyche.Backend_intf.backend_name = "riscv-pmp";
      domain_created = (fun _ -> ());
      domain_destroyed =
        (fun d ->
          let id = Tyche.Domain.id d in
          if s.journaling then begin
            let layout = Hashtbl.find_opt s.layouts id in
            let devices = Hashtbl.find_opt s.domain_devices id in
            record s (fun () ->
              Option.iter (Hashtbl.replace s.layouts id) layout;
              Option.iter (Hashtbl.replace s.domain_devices id) devices)
          end;
          Hashtbl.remove s.layouts id;
          Hashtbl.remove s.domain_devices id);
      apply_effect = (fun eff -> apply_effect s eff);
      validate_attach = (fun d r -> validate_attach s d r);
      transition =
        (fun ~core ~from_ ~to_ ~flush_microarch ->
          transition s ~core ~from_ ~to_ ~flush_microarch);
      launch =
        (fun ~core d ->
          match enter s ~core d with
          | Ok () -> ()
          | Error msg -> invalid_arg ("Backend_riscv: " ^ msg));
      domain_reaches = (fun d r -> domain_reaches s d r);
      domain_encrypted = (fun _ -> false);
      stale_switches = (fun () -> []);
      txn_begin = (fun () -> txn_begin s);
      txn_commit = (fun () -> txn_commit s);
      txn_rollback = (fun () -> txn_rollback s) }
  in
  Ephemeron.K1.Bucket.add registry backend s;
  backend

let layout_of backend domain = !(layout_ref (state_of backend) domain)
let transitions backend = (state_of backend).transitions
let pmp_reprogram_writes backend = (state_of backend).pmp_writes
