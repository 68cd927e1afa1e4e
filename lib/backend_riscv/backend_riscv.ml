type alloc_strategy = Merge_adjacent | First_fit

type state = {
  machine : Hw.Machine.t;
  monitor_range : Hw.Addr.Range.t;
  strategy : alloc_strategy;
  layouts : (Tyche.Domain.id, (Hw.Addr.Range.t * Hw.Perm.t) list ref) Hashtbl.t;
  core_domain : int array;
  mutable transitions : int;
  mutable pmp_writes : int;
  hw : Tyche.Hw_txn.t;
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

let journaling s = Tyche.Hw_txn.journaling s.hw
let record s undo = Tyche.Hw_txn.record s.hw undo

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

let journal_layout s domain =
  if journaling s then begin
    let l = layout_ref s domain in
    let old = !l in
    record s (fun () -> l := old)
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

(* Hoisted span handles: one registry lookup per process, not per
   hardware write (see {!Obs.Profile.handle}). *)
let h_pmp_reprogram = Obs.Profile.handle "pmp.reprogram"
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
    if journaling s then begin
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

let map_memory s domain range perm =
  journal_layout s domain;
  let l = layout_ref s domain in
  l := normalize s.strategy ((range, perm) :: !l);
  Ok ()

(* No TLB surface on RISC-V — PMP checks every access. *)
let unmap_memory s domain range =
  journal_layout s domain;
  let l = layout_ref s domain in
  l :=
    normalize s.strategy
      (List.concat_map
         (fun (r, p) ->
           List.map (fun piece -> (piece, p)) (Hw.Addr.Range.subtract r range))
         !l);
  Ok ()

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
    if journaling s then begin
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
  Hw.Cycles.charge s.machine.Hw.Machine.counter Hw.Cycles.Cost.ecall_machine_mode;
  if flush_microarch then Tyche.Hw_txn.flush_lines s.hw (Tyche.Domain.id from_);
  match
    try enter s ~core to_ with Fault.Injected _ as e -> Error (Tyche.Hw_txn.fault_error e)
  with
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
      core_domain = Array.make (Array.length machine.Hw.Machine.cores) Tyche.Domain.initial;
      transitions = 0;
      pmp_writes = 0;
      hw = Tyche.Hw_txn.create machine ~backend:bk_riscv }
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
          Tyche.Hw_txn.domain_destroyed s.hw id;
          if journaling s then begin
            let layout = Hashtbl.find_opt s.layouts id in
            record s (fun () -> Option.iter (Hashtbl.replace s.layouts id) layout)
          end;
          Hashtbl.remove s.layouts id);
      apply_effect =
        Tyche.Hw_txn.apply_effect s.hw
          ~holdings:(fun d -> !(layout_ref s d))
          ~map:(map_memory s) ~unmap:(unmap_memory s) ~program:(reprogram_running s);
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
      txn_begin =
        (fun () ->
          Tyche.Hw_txn.txn_begin s.hw;
          let transitions = s.transitions and pmp_writes = s.pmp_writes in
          record s (fun () ->
            s.transitions <- transitions;
            s.pmp_writes <- pmp_writes));
      txn_commit = (fun () -> Tyche.Hw_txn.txn_commit s.hw ignore);
      txn_rollback = (fun () -> Tyche.Hw_txn.txn_rollback s.hw) }
  in
  Ephemeron.K1.Bucket.add registry backend s;
  backend

let layout_of backend domain = !(layout_ref (state_of backend) domain)
let transitions backend = (state_of backend).transitions
let pmp_reprogram_writes backend = (state_of backend).pmp_writes
