type tlb_strategy = Full_shootdown | Asid_flush

type state = {
  machine : Hw.Machine.t;
  tlb_strategy : tlb_strategy;
  mktme : Hw.Mktme.t option;
  keyids : (Tyche.Domain.id, Hw.Mktme.keyid) Hashtbl.t;
  confidential : (Tyche.Domain.id, unit) Hashtbl.t;
  mutable next_keyid : int;
  epts : (Tyche.Domain.id, Hw.Ept.t) Hashtbl.t;
  eptp_lists : (Tyche.Domain.id, Hw.Ept.Eptp_list.t) Hashtbl.t;
  mutable fast : int;
  mutable trap : int;
  hw : Tyche.Hw_txn.t;
  (* TLB invalidation waits for commit inside a transaction: [stale]
     collects the domains whose translations a detach invalidated, and
     commit pays one shootdown (or one ASID flush per domain) for the
     whole call, or nothing if no core can cache any of them (see
     [cached]). A rollback restores every mapping, so the cached
     translations are valid again and nothing is flushed. *)
  stale : (Tyche.Domain.id, unit) Hashtbl.t;
  (* The domains whose translations some core may cache: a core
     entered the domain since its last flush, or was running it when
     that flush ran. This is the per-domain set of such cores reduced to
     the one thing the flush asks of it, whether it is empty. A domain
     absent here holds no TLB entry, so its stale translations need no
     invalidation. *)
  cached : (Tyche.Domain.id, unit) Hashtbl.t;
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
  | None -> invalid_arg "Backend_x86: not a backend created by this module"

let journaling s = Tyche.Hw_txn.journaling s.hw
let record s undo = Tyche.Hw_txn.record s.hw undo

(* Invalidate the stale domains' translations. A domain no core can
   cache holds none, so it is dropped; when none is left, nothing is
   flushed or charged. After a flush only the cores still running a
   domain (its ASID is the domain id) can cache it again. Runs only
   outside a transaction, so no rollback can put a core back on a domain
   this just dropped from [cached]. *)
let flush_tlb s domains =
  let tlb = s.machine.Hw.Machine.tlb and cores = s.machine.Hw.Machine.cores in
  match List.filter (Hashtbl.mem s.cached) domains with
  | [] -> ()
  | live -> (
    match s.tlb_strategy with
    | Full_shootdown ->
      Hw.Tlb.shootdown tlb ~remote_cores:(Array.length cores - 1);
      Hashtbl.reset s.cached;
      Array.iter (fun core -> Hashtbl.replace s.cached (Hw.Cpu.asid core) ()) cores
    | Asid_flush ->
      List.iter
        (fun asid ->
          Hw.Tlb.flush_asid tlb ~asid;
          if not (Array.exists (fun core -> Hw.Cpu.asid core = asid) cores) then
            Hashtbl.remove s.cached asid)
        live)

(* A detach left [domain]'s translations stale: invalidate now outside a
   transaction, at commit inside one. *)
let invalidate_tlb s domain =
  if journaling s then Hashtbl.replace s.stale domain () else flush_tlb s [ domain ]

(* Runs at commit, before the staged clean-ups. *)
let flush_stale s () =
  let stale = List.sort Int.compare (Hashtbl.fold (fun d () acc -> d :: acc) s.stale []) in
  Hashtbl.reset s.stale;
  if stale <> [] then flush_tlb s stale

(* MKTME: protect memory attached to a confidential domain under its
   key; memory attached to anyone else reverts to plaintext-on-bus. *)
let mktme_on_attach s domain range =
  match s.mktme with
  | None -> ()
  | Some controller ->
    if Hashtbl.mem s.confidential domain then begin
      match Hashtbl.find_opt s.keyids domain with
      | Some keyid ->
        if journaling s then record s (fun () -> Hw.Mktme.unprotect controller range);
        Hw.Mktme.protect controller ~keyid range
      | None ->
        if s.next_keyid < Hw.Mktme.slots controller then begin
          let keyid = s.next_keyid in
          if journaling s then
            record s (fun () ->
              Hw.Mktme.unprotect controller range;
              Hashtbl.remove s.keyids domain;
              s.next_keyid <- keyid);
          s.next_keyid <- keyid + 1;
          Hashtbl.replace s.keyids domain keyid;
          Hw.Mktme.protect controller ~keyid range
        end
        (* slots exhausted: the domain runs unencrypted, like real parts *)
    end
    else
      (* Freshly attached plaintext memory was not under a key: undoing
         this unprotect is a no-op, so none is journaled. *)
      Hw.Mktme.unprotect controller range

let mktme_on_detach s range =
  match s.mktme with
  | None -> ()
  | Some controller ->
    if journaling s then begin
      match Hw.Mktme.keyid_of controller (Hw.Addr.Range.base range) with
      | Some keyid -> record s (fun () -> Hw.Mktme.protect controller ~keyid range)
      | None -> ()
    end;
    Hw.Mktme.unprotect controller range

(* Hoisted span handles: one registry lookup per process, not per
   hardware write (see {!Obs.Profile.handle}). *)
let h_ept_map = Obs.Profile.handle "ept.map"
let h_ept_unmap = Obs.Profile.handle "ept.unmap"
let bk_x86 = Obs.intern "x86_64-vtx"

let no_ept domain = Error (Printf.sprintf "no EPT for domain %d" domain)

let map_memory s domain range perm =
  Obs.Profile.span_h ~domain ~backend:bk_x86 h_ept_map @@ fun () ->
  match Hashtbl.find_opt s.epts domain with
  | None -> no_ept domain
  | Some ept ->
    if journaling s then begin
      (* Eagerly capture each page's prior entry: the hypervisor may map
         non-identity gpas, so the undo cannot be rebuilt from the mem
         list. A mid-range injected fault leaves a prefix mapped; the
         undo handles pages we never reached (prior None, still None). *)
      let base = Hw.Addr.Range.base range and limit = Hw.Addr.Range.limit range in
      let rec pages gpa acc =
        if gpa >= limit then acc
        else pages (gpa + Hw.Addr.page_size) ((gpa, Hw.Ept.entry_at ept ~gpa) :: acc)
      in
      let prior = pages base [] in
      record s (fun () ->
        List.iter
          (fun (gpa, old) ->
            match old with
            | Some (hpa, perm) -> Hw.Ept.map_page ept ~gpa ~hpa perm
            | None -> if Hw.Ept.entry_at ept ~gpa <> None then Hw.Ept.unmap_page ept ~gpa)
          prior)
    end;
    Hw.Ept.map_range ept ~gpa:(Hw.Addr.Range.base range) range perm;
    mktme_on_attach s domain range;
    Ok ()

(* Besides the pages and lines {!Tyche.Hw_txn} taints, the victim's live
   translations are marked; the TLB invalidation at commit erases them.
   Must run before the unmap: the victim set has to be captured while
   the entries still exist. *)
let unmap_memory s domain range =
  Obs.Profile.span_h ~domain ~backend:bk_x86 h_ept_unmap @@ fun () ->
  match Hashtbl.find_opt s.epts domain with
  | None -> no_ept domain
  | Some ept ->
    let tt = s.machine.Hw.Machine.taint in
    let u_tlb =
      Hw.Taint.taint_tlb tt
        (Hw.Tlb.entries_into s.machine.Hw.Machine.tlb ~asid:domain range)
        ~prior:domain
    in
    if journaling s then begin
      let victims = Hw.Ept.mappings_to ept range in
      record s (fun () ->
        List.iter (fun (gpa, hpa, perm) -> Hw.Ept.map_page ept ~gpa ~hpa perm) victims;
        Hw.Taint.undo tt u_tlb)
    end;
    let (_ : int) = Hw.Ept.unmap_hpa_range ept range in
    mktme_on_detach s range;
    invalidate_tlb s domain;
    Ok ()

(* The domain's EPT as host-physical windows: runs of consecutive host
   pages mapped with one permission, in gpa order. *)
let ept_windows s domain =
  match Hashtbl.find_opt s.epts domain with
  | None -> []
  | Some ept ->
    let runs = ref [] in
    Hw.Ept.iter_mappings ept (fun ~gpa:_ ~hpa perm ->
        match !runs with
        | (base, limit, p) :: rest when limit = hpa && Hw.Perm.equal p perm ->
          runs := (base, limit + Hw.Addr.page_size, p) :: rest
        | _ -> runs := (hpa, hpa + Hw.Addr.page_size, perm) :: !runs);
    List.rev_map (fun (lo, hi, perm) -> (Hw.Addr.Range.of_bounds ~lo ~hi, perm)) !runs

let programmed _ = Ok () (* cores walk the live EPT: nothing to reload *)

let validate_attach _domain resource =
  match resource with
  | Cap.Resource.Memory r ->
    if Hw.Addr.Range.is_page_aligned r then Ok ()
    else Error "EPT backend requires page-aligned memory ranges"
  | Cap.Resource.Cpu_core _ | Cap.Resource.Device _ -> Ok ()

let mode_for d =
  match Tyche.Domain.kind d with
  | Tyche.Domain.Os | Tyche.Domain.Confidential_vm ->
    Hw.Cpu.X86 { ring = 0; vmx_root = false }
  | Tyche.Domain.Sandbox | Tyche.Domain.Enclave | Tyche.Domain.Io_domain
  | Tyche.Domain.Remote ->
    Hw.Cpu.X86 { ring = 3; vmx_root = false }

let enter s ~core d =
  let id = Tyche.Domain.id d in
  if journaling s then begin
    let old_ept = Hw.Cpu.active_ept core
    and old_asid = Hw.Cpu.asid core
    and old_mode = Hw.Cpu.mode core in
    record s (fun () ->
      Hw.Cpu.set_active_ept core old_ept;
      Hw.Cpu.set_asid core old_asid;
      Hw.Cpu.set_mode core old_mode)
  end;
  Hw.Cpu.set_active_ept core (Hashtbl.find_opt s.epts id);
  Hw.Cpu.set_asid core (Tyche.Domain.asid d);
  Hw.Cpu.set_mode core (mode_for d);
  (* Not journaled: a domain left in [cached] after a rollback costs at
     most one flush that was not needed. *)
  Hashtbl.replace s.cached id ()

let transition s ~core ~from_ ~to_ ~flush_microarch =
  let counter = s.machine.Hw.Machine.counter in
  let from_id = Tyche.Domain.id from_ and to_id = Tyche.Domain.id to_ in
  let from_list = Hashtbl.find_opt s.eptp_lists from_id in
  let to_ept = Hashtbl.find_opt s.epts to_id in
  let fast_path_ready =
    (not flush_microarch)
    && (match from_list, to_ept with
       | Some l, Some e -> Hw.Ept.Eptp_list.slot_of l e <> None
       | _ -> false)
  in
  let path =
    if fast_path_ready then begin
      Hw.Cycles.charge counter Hw.Cycles.Cost.vmfunc;
      s.fast <- s.fast + 1;
      Tyche.Backend_intf.Fast_switch
    end
    else begin
      Hw.Cycles.charge counter Hw.Cycles.Cost.vmcall_roundtrip;
      s.trap <- s.trap + 1;
      if flush_microarch then begin
        (* The outgoing domain's TLB entries are promised gone with its
           cache lines: taint them guarded, then flush — surviving taint
           means the flush regressed. *)
        Tyche.Hw_txn.flush_lines s.hw from_id;
        let m = s.machine in
        let tt = m.Hw.Machine.taint in
        let u_tlb =
          Hw.Taint.taint_tlb tt
            (Hw.Tlb.entries_into m.Hw.Machine.tlb ~asid:from_id
               (Hw.Physmem.full_range m.Hw.Machine.mem))
            ~prior:from_id
        in
        if journaling s then record s (fun () -> Hw.Taint.undo tt u_tlb);
        Hw.Tlb.flush_asid m.Hw.Machine.tlb ~asid:from_id
      end
      else begin
        (* First trap between this pair: the monitor registers each
           domain's EPT in the other's EPTP list, since a call implies
           its return, so later transitions either way take the VMFUNC
           path (ablation a2: a list whose 512 slots all hold live EPTs
           keeps trapping). A registration is not rolled back with a
           failed transaction: both domains are live, so the entry
           stays valid. *)
        let register list ept =
          match list, ept with
          | Some l, Some e -> ignore (Hw.Ept.Eptp_list.register l e : int option)
          | _ -> ()
        in
        register from_list to_ept;
        register (Hashtbl.find_opt s.eptp_lists to_id) (Hashtbl.find_opt s.epts from_id)
      end;
      Tyche.Backend_intf.Trap_roundtrip
    end
  in
  enter s ~core to_;
  (* No fallible hardware step on this path: EPT switching cannot run
     out of resources the way PMP reprogramming can. *)
  Ok path

let domain_reaches s d range =
  match Hashtbl.find_opt s.epts (Tyche.Domain.id d) with
  | Some ept -> Hw.Ept.reaches_hpa_range ept range
  | None -> false

(* Per list, the slots whose EPT no live domain owns: the list's count
   less the live EPTs it holds (an EPT takes at most one slot). *)
let stale_switches s =
  Hashtbl.fold
    (fun id l acc ->
      let live =
        Hashtbl.fold
          (fun _ e n -> if Hw.Ept.Eptp_list.slot_of l e = None then n else n + 1)
          s.epts 0
      in
      match Hw.Ept.Eptp_list.count l - live with 0 -> acc | n -> (id, n) :: acc)
    s.eptp_lists []
  |> List.sort compare

let create machine ?(tlb_strategy = Full_shootdown) ?mktme () =
  if machine.Hw.Machine.arch <> Hw.Cpu.X86_64 then
    invalid_arg "Backend_x86.create: machine is not x86_64";
  let s =
    { machine;
      tlb_strategy;
      mktme;
      keyids = Hashtbl.create 16;
      confidential = Hashtbl.create 16;
      next_keyid = 0;
      epts = Hashtbl.create 16;
      eptp_lists = Hashtbl.create 16;
      fast = 0;
      trap = 0;
      hw = Tyche.Hw_txn.create machine ~backend:bk_x86;
      stale = Hashtbl.create 8;
      cached = Hashtbl.create 16 }
  in
  let flush_stale = flush_stale s in
  let backend =
    { Tyche.Backend_intf.backend_name = "x86_64-vtx";
      domain_created =
        (fun d ->
          let id = Tyche.Domain.id d in
          if journaling s then
            (* A fresh domain has no prior backend state: undo removes
               everything this call creates. *)
            record s (fun () ->
              Hashtbl.remove s.confidential id;
              Hashtbl.remove s.epts id;
              Hashtbl.remove s.eptp_lists id);
          (match Tyche.Domain.kind d with
          | Tyche.Domain.Enclave | Tyche.Domain.Confidential_vm ->
            Hashtbl.replace s.confidential id ()
          | Tyche.Domain.Os | Tyche.Domain.Sandbox | Tyche.Domain.Io_domain
          | Tyche.Domain.Remote -> ());
          Hashtbl.replace s.epts id (Hw.Ept.create ~counter:machine.Hw.Machine.counter);
          Hashtbl.replace s.eptp_lists id (Hw.Ept.Eptp_list.create ()));
      domain_destroyed =
        (fun d ->
          let id = Tyche.Domain.id d in
          Tyche.Hw_txn.domain_destroyed s.hw id;
          if journaling s then begin
            let ept = Hashtbl.find_opt s.epts id
            and eptp = Hashtbl.find_opt s.eptp_lists id
            and conf = Hashtbl.mem s.confidential id
            and keyid = Hashtbl.find_opt s.keyids id in
            record s (fun () ->
              Option.iter (Hashtbl.replace s.epts id) ept;
              Option.iter (Hashtbl.replace s.eptp_lists id) eptp;
              if conf then Hashtbl.replace s.confidential id ();
              Option.iter (Hashtbl.replace s.keyids id) keyid)
          end;
          (* Free the dead EPT's slot in every list, so no domain can
             VMFUNC into it and the slot serves the next callee. An undo
             takes back the same slot: the journal unwinds newest first
             and freed slots are reused newest first. *)
          Option.iter
            (fun ept ->
              Hashtbl.iter
                (fun _ l ->
                  if Hw.Ept.Eptp_list.unregister l ept && journaling s then
                    record s (fun () -> ignore (Hw.Ept.Eptp_list.register l ept : int option)))
                s.eptp_lists)
            (Hashtbl.find_opt s.epts id);
          Hashtbl.remove s.epts id;
          Hashtbl.remove s.eptp_lists id;
          Hashtbl.remove s.confidential id;
          (* [cached] keeps the domain: the teardown's detaches commit
             after this, and their flush must still see it cached. *)
          Hashtbl.remove s.keyids id);
      apply_effect =
        Tyche.Hw_txn.apply_effect s.hw ~holdings:(ept_windows s) ~map:(map_memory s)
          ~unmap:(unmap_memory s) ~program:programmed;
      validate_attach = (fun d r -> validate_attach d r);
      transition =
        (fun ~core ~from_ ~to_ ~flush_microarch ->
          transition s ~core ~from_ ~to_ ~flush_microarch);
      launch = (fun ~core d -> enter s ~core d);
      domain_reaches = (fun d r -> domain_reaches s d r);
      domain_encrypted =
        (fun d -> s.mktme <> None && Hashtbl.mem s.keyids (Tyche.Domain.id d));
      stale_switches = (fun () -> stale_switches s);
      txn_begin =
        (fun () ->
          Tyche.Hw_txn.txn_begin s.hw;
          let fast = s.fast and trap = s.trap in
          record s (fun () ->
            s.fast <- fast;
            s.trap <- trap));
      txn_commit = (fun () -> Tyche.Hw_txn.txn_commit s.hw flush_stale);
      txn_rollback =
        (fun () ->
          Hashtbl.reset s.stale;
          Tyche.Hw_txn.txn_rollback s.hw) }
  in
  Ephemeron.K1.Bucket.add registry backend s;
  backend

let ept_of backend domain = Hashtbl.find_opt (state_of backend).epts domain

let eptp_registered backend ~from_ ~to_ =
  let s = state_of backend in
  match Hashtbl.find_opt s.eptp_lists from_, Hashtbl.find_opt s.epts to_ with
  | Some l, Some e -> Hw.Ept.Eptp_list.slot_of l e <> None
  | _ -> false

let fast_transitions backend = (state_of backend).fast
let trap_transitions backend = (state_of backend).trap
