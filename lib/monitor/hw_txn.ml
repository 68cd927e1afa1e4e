type t = {
  machine : Hw.Machine.t;
  backend : int;
  devices : (Domain.id, int list) Hashtbl.t;
  mutable journal : (unit -> unit) list;
  mutable journaling : bool;
  mutable staged : (Hw.Addr.Range.t * Cap.Revocation.t) list;
}

let create machine ~backend =
  { machine;
    backend;
    devices = Hashtbl.create 16;
    journal = [];
    journaling = false;
    staged = [] }

let journaling t = t.journaling
let record t undo = t.journal <- undo :: t.journal

let clean t cleanups =
  let m = t.machine in
  Cap.Revocation.apply_all ~mem:m.Hw.Machine.mem ~cache:m.Hw.Machine.cache
    ~counter:m.Hw.Machine.counter cleanups

(* Stage a destructive clean-up as data: the commit cleans the whole
   call's ranges at once, so a page several detaches share is zeroed
   once. Outside a transaction (boot-time paths) it runs at once. *)
let stage t range = function
  | Cap.Revocation.Keep -> ()
  | cleanup ->
    if t.journaling then t.staged <- (range, cleanup) :: t.staged
    else clean t [ (range, cleanup) ]

let txn_begin t =
  if t.journaling then invalid_arg "Hw_txn.txn_begin: transaction already open";
  t.journal <- [];
  t.staged <- [];
  t.journaling <- true

let txn_commit t before_cleanups =
  let cleanups = t.staged in
  t.journaling <- false;
  t.journal <- [];
  t.staged <- [];
  before_cleanups ();
  clean t cleanups

let txn_rollback t =
  let undos = t.journal in
  t.journaling <- false;
  t.journal <- [];
  t.staged <- [];
  (* Undo closures replay hardware writes; they must not re-trip the
     fault plan that caused the rollback. *)
  Fault.suspend (fun () -> List.iter (fun f -> f ()) undos)

let fault_error = function
  | Fault.Injected { point; trip } ->
    Printf.sprintf "fault injected at %s (trip %d)" point trip
  | e -> raise e

(* --- devices and DMA ------------------------------------------------ *)

let devices_of t domain = Option.value ~default:[] (Hashtbl.find_opt t.devices domain)

let set_devices t domain devices =
  if t.journaling then begin
    let old = Hashtbl.find_opt t.devices domain in
    record t (fun () ->
      match old with
      | Some l -> Hashtbl.replace t.devices domain l
      | None -> Hashtbl.remove t.devices domain)
  end;
  match devices with
  | Some l -> Hashtbl.replace t.devices domain l
  | None -> Hashtbl.remove t.devices domain

let journal_iommu t device =
  if t.journaling then begin
    let iommu = t.machine.Hw.Machine.iommu in
    let ws = Hw.Iommu.windows iommu ~device in
    record t (fun () -> Hw.Iommu.set_windows iommu ~device ws)
  end

let dma_perm perm = Hw.Perm.inter perm Hw.Perm.rw

(* A domain holding the device through several capabilities lists it
   once per capability, so a detach takes one copy out. *)
let rec remove_one bdf = function
  | [] -> []
  | d :: rest -> if d = bdf then rest else d :: remove_one bdf rest

(* Grant [bdf] DMA to what each of its holders holds inside [within]:
   a device's windows are the union of its holders' memory. *)
let grant_holders t holdings bdf within =
  Hashtbl.iter
    (fun holder devices ->
      if List.mem bdf devices then
        List.iter
          (fun (held, perm) ->
            Option.iter
              (fun piece ->
                Hw.Iommu.grant t.machine.Hw.Machine.iommu ~device:bdf piece (dma_perm perm))
              (Hw.Addr.Range.intersect held within))
          (holdings holder))
    t.devices

(* Mark what the victim leaves behind — its pages, its resident cache
   lines — with its id before any clean-up runs. The clean-up the policy
   promises (deferred zero, cache flush) erases exactly the taint it
   cleans, so whatever taint survives the transaction is clean-up that
   did not happen — which the access paths and the fsck taint pass then
   catch (see Hw.Taint). *)
let taint_detach t domain range cleanup =
  let m = t.machine in
  let tt = m.Hw.Machine.taint in
  let u_pages =
    Hw.Taint.taint_pages tt range ~prior:domain
      ~guarded:(Cap.Revocation.zeroes_memory cleanup)
  in
  let u_lines =
    Hw.Taint.taint_lines tt
      (Hw.Cache.resident_lines_in m.Hw.Machine.cache range)
      ~prior:domain
      ~guarded:(Cap.Revocation.flushes_cache cleanup)
  in
  if t.journaling then
    record t (fun () ->
      Hw.Taint.undo tt u_lines;
      Hw.Taint.undo tt u_pages)

(* Hoisted span handles: one registry lookup per process, not per
   hardware write (see {!Obs.Profile.handle}). *)
let h_iommu_grant = Obs.Profile.handle "iommu.grant"
let h_iommu_revoke = Obs.Profile.handle "iommu.revoke"

let apply_unsafe t ~holdings ~map ~unmap ~program = function
  | Cap.Captree.Attach { domain; resource = Cap.Resource.Memory r; perm } -> (
    match map domain r perm with
    | Error _ as e -> e
    | Ok () ->
      List.iter
        (fun bdf ->
          journal_iommu t bdf;
          Hw.Iommu.grant t.machine.Hw.Machine.iommu ~device:bdf r (dma_perm perm))
        (devices_of t domain);
      program domain)
  | Cap.Captree.Detach { domain; resource = Cap.Resource.Memory r; cleanup } -> (
    taint_detach t domain r cleanup;
    match unmap domain r with
    | Error _ as e -> e
    | Ok () -> (
      (* [unmap] took [r] out of [domain]'s holdings: re-grant what the
         device's other holders still hold of it. *)
      List.iter
        (fun bdf ->
          journal_iommu t bdf;
          Hw.Iommu.revoke_range t.machine.Hw.Machine.iommu ~device:bdf r;
          grant_holders t holdings bdf r)
        (devices_of t domain);
      match program domain with
      | Error _ as e -> e
      | Ok () ->
        (* Zeroing is destructive and has no inverse: stage it so a later
           failure in the same transaction never needs to un-zero. *)
        stage t r cleanup;
        Ok ()))
  | Cap.Captree.Attach { domain; resource = Cap.Resource.Device bdf; _ } ->
    Obs.Profile.span_h ~domain ~backend:t.backend h_iommu_grant @@ fun () ->
    set_devices t domain (Some (bdf :: devices_of t domain));
    journal_iommu t bdf;
    List.iter
      (fun (range, perm) ->
        Hw.Iommu.grant t.machine.Hw.Machine.iommu ~device:bdf range (dma_perm perm))
      (holdings domain);
    Ok ()
  | Cap.Captree.Detach { domain; resource = Cap.Resource.Device bdf; _ } ->
    Obs.Profile.span_h ~domain ~backend:t.backend h_iommu_revoke @@ fun () ->
    let interrupts = t.machine.Hw.Machine.interrupts in
    journal_iommu t bdf;
    if t.journaling then begin
      let vectors = Hw.Interrupt.permitted interrupts ~device:bdf in
      record t (fun () ->
        List.iter (fun vector -> Hw.Interrupt.permit interrupts ~device:bdf ~vector) vectors)
    end;
    Hw.Iommu.revoke_all t.machine.Hw.Machine.iommu ~device:bdf;
    Hw.Interrupt.revoke_device interrupts ~device:bdf;
    set_devices t domain (Some (remove_one bdf (devices_of t domain)));
    (* The device keeps what its remaining holders hold. *)
    grant_holders t holdings bdf (Hw.Physmem.full_range t.machine.Hw.Machine.mem);
    Ok ()
  | Cap.Captree.Attach { resource = Cap.Resource.Cpu_core _; _ }
  | Cap.Captree.Detach { resource = Cap.Resource.Cpu_core _; _ } ->
    (* Core eligibility is checked by the monitor at transition time. *)
    Ok ()

let apply_effect t ~holdings ~map ~unmap ~program eff =
  try apply_unsafe t ~holdings ~map ~unmap ~program eff
  with Fault.Injected _ as e -> Error (fault_error e)

let flush_lines t domain =
  let m = t.machine in
  let tt = m.Hw.Machine.taint in
  let u_lines =
    Hw.Taint.taint_lines tt
      (Hw.Cache.lines_of_tag m.Hw.Machine.cache ~tag:domain)
      ~prior:domain ~guarded:true
  in
  if t.journaling then record t (fun () -> Hw.Taint.undo tt u_lines);
  Hw.Cache.flush_all m.Hw.Machine.cache

let domain_destroyed t domain = set_devices t domain None
