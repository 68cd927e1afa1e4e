(* The sharded monitor: a federation of per-OCaml-Domain monitors
   behind one global namespace (the "millions of users" scaling unit).

   Layout. Shard [s] is a complete world — its own machine, backend,
   TPM and {!Monitor.t} — so every hardware write stays shard-local by
   construction. Isolation domains are *replicated*: domain lifecycle
   ops broadcast to every shard (the per-shard [next_domain] counters
   stay in lockstep, so ids agree), while resources live on exactly one
   shard and capability subtrees never cross shards (a share targets a
   domain, and every domain exists on every shard).

   Naming. Global ids are stateless encodings of (shard, local):
     - capability id  g = local lsl 6 lor shard   (max 64 shards)
     - memory address g = shard * 2^40 + local
     - core           g = shard * cores_per_shard + local
   The encoding is shard-count invariant for shard 0: a workload
   confined to shard 0's resources produces byte-identical responses
   under 1 shard and under N — which is exactly what the differential
   harness replays.

   Calls. [dispatch] is a router, not a second monitor: a capability
   call or a transition runs [Monitor.exec] on the one shard that owns
   it, in that shard's local ids; a domain-configuration call runs it on
   every shard. Only the calls that need front-end state (global
   measured ranges, the federation signer) or span shards (the 2PC
   destroy) have bodies here.

   Concurrency. Each shard has a mutex (writers) and a seqlock-style
   write sequence (readers): the indexed queries (refcount, holders,
   caps_of) read optimistically against a pinned sequence and retry on
   interference, so readers never block writers. Cross-shard mutations
   (domain destruction — the revocation cascade touches every shard)
   run a two-phase commit over {!Monitor.txn_begin}/[txn_commit]/
   [txn_rollback]: prepare the journals on every shard, then commit
   all or roll all back. The WAL contract survives unchanged: one
   front-end redo log (global ids, group commit), appended only after
   an operation fully commits and before its locks are released, so
   the log orders two calls on one shard as they ran. *)

let shard_bits = 6
let max_shards = 1 lsl shard_bits
let addr_stride = 1 lsl 40

type shard = {
  s_index : int;
  s_monitor : Monitor.t;
  s_machine : Hw.Machine.t;
  s_lock : Mutex.t;
  (* Seqlock word: odd while a writer is inside the shard. Writers
     always hold [s_lock]; readers never take it on the fast path. *)
  s_wseq : int Atomic.t;
}

(* The front-end redo log: [fp_lock] serializes every use of
   [fp_group] — writers on several Domains append, any Domain may
   flush. *)
type persist_front = {
  fp_group : Persist.Group.t;
  fp_lock : Mutex.t;
}

type t = {
  shards : shard array;
  cores_per_shard : int;
  (* Front-end aggregate-attestation signer: one signature over the
     concatenated per-shard bodies. *)
  signer : Crypto.Signature.signer;
  signer_lock : Mutex.t;
  (* Global measured ranges per domain, in declaration order — the
     per-shard domain records only know their local slices. *)
  measured : (Domain.id, Hw.Addr.Range.t list) Hashtbl.t;
  meas_lock : Mutex.t;
  mutable persist : persist_front option;
}

let ( let* ) = Result.bind

(* --- id translation ------------------------------------------------- *)

let gcap ~shard local = (local lsl shard_bits) lor shard
let cap_shard c = c land (max_shards - 1)
let cap_local c = c lsr shard_bits
let addr_shard a = a / addr_stride

let grange ~shard r =
  Hw.Addr.Range.make
    ~base:((shard * addr_stride) + Hw.Addr.Range.base r)
    ~len:(Hw.Addr.Range.len r)

let lrange ~shard r =
  Hw.Addr.Range.make
    ~base:(Hw.Addr.Range.base r - (shard * addr_stride))
    ~len:(Hw.Addr.Range.len r)

(* A global subrange is usable only if it sits entirely inside one
   shard's address window. *)
let local_sub ~shard r =
  if addr_shard (Hw.Addr.Range.base r) <> shard || addr_shard (Hw.Addr.Range.limit r - 1) <> shard
  then None
  else Some (lrange ~shard r)

let core_shard t core = core / t.cores_per_shard
let core_local t core = core mod t.cores_per_shard
let gcore t ~shard local = (shard * t.cores_per_shard) + local

let resource_shard t = function
  | Cap.Resource.Memory r -> addr_shard (Hw.Addr.Range.base r)
  | Cap.Resource.Cpu_core c -> core_shard t c
  | Cap.Resource.Device _ -> 0 (* devices attach to shard 0 only *)

let local_resource t ~shard = function
  | Cap.Resource.Memory r -> Cap.Resource.Memory (lrange ~shard r)
  | Cap.Resource.Cpu_core c -> Cap.Resource.Cpu_core (c - (shard * t.cores_per_shard))
  | Cap.Resource.Device d -> Cap.Resource.Device d

(* Shard-monitor errors surface local capability ids; translate them
   back into the global namespace before they reach the caller. *)
let tr_cap_error ~shard = function
  | Cap.Captree.No_such_capability c -> Cap.Captree.No_such_capability (gcap ~shard c)
  | Cap.Captree.Capability_inactive c -> Cap.Captree.Capability_inactive (gcap ~shard c)
  | e -> e

let tr_error ~shard = function
  | Monitor.Cap_error e -> Monitor.Cap_error (tr_cap_error ~shard e)
  | e -> e

(* --- locking -------------------------------------------------------- *)

let locked s f = Mutex.protect s.s_lock f

let write s f =
  Mutex.protect s.s_lock (fun () ->
      Atomic.incr s.s_wseq;
      Fun.protect ~finally:(fun () -> Atomic.incr s.s_wseq) f)

(* Optimistic read: pin the shard's write sequence, run the query
   against the live tree, and keep the result only if no writer entered
   in between. A query racing a writer may observe a torn structure and
   raise — that is exactly the "sequence moved" case, so the exception
   is swallowed if and only if the seqlock invalidated the attempt.
   After a few failed attempts, fall back to the shard mutex. *)
let read s f =
  let rec attempt retries =
    if retries = 0 then Mutex.protect s.s_lock f
    else
      let v0 = Atomic.get s.s_wseq in
      if v0 land 1 = 1 then begin
        Stdlib.Domain.cpu_relax ();
        attempt (retries - 1)
      end
      else
        match f () with
        | r when Atomic.get s.s_wseq = v0 -> r
        | _ -> attempt (retries - 1)
        | exception _ when Atomic.get s.s_wseq <> v0 -> attempt (retries - 1)
  in
  attempt 4

(* Whole-federation write bracket: take every shard lock in ascending
   index order (lock-order discipline — no deadlock against the
   single-shard writers) and mark every seqlock. *)
let write_all t f =
  let n = Array.length t.shards in
  let rec go i =
    if i = n then begin
      Array.iter (fun s -> Atomic.incr s.s_wseq) t.shards;
      Fun.protect
        ~finally:(fun () -> Array.iter (fun s -> Atomic.incr s.s_wseq) t.shards)
        f
    end
    else Mutex.protect t.shards.(i).s_lock (fun () -> go (i + 1))
  in
  go 0

(* --- boot ----------------------------------------------------------- *)

let boot ~shards:n ?(signer_height = 6) ?keypool ~rng ~mk () =
  if n < 1 || n > max_shards then
    invalid_arg (Printf.sprintf "Sharded.boot: shard count must be in 1..%d" max_shards);
  let tpm0 = ref None in
  let shards =
    Array.init n (fun i ->
        let machine, backend, tpm, srng, monitor_range = mk ~shard:i in
        if i = 0 then tpm0 := Some tpm;
        let monitor = Monitor.boot ~signer_height machine ~backend ~tpm ~rng:srng ~monitor_range in
        { s_index = i;
          s_monitor = monitor;
          s_machine = machine;
          s_lock = Mutex.create ();
          s_wseq = Atomic.make 0 })
  in
  let cores_per_shard = Array.length shards.(0).s_machine.Hw.Machine.cores in
  Array.iter
    (fun s ->
      if Array.length s.s_machine.Hw.Machine.cores <> cores_per_shard then
        invalid_arg "Sharded.boot: every shard must have the same core count";
      if Hw.Addr.Range.len (Hw.Physmem.full_range s.s_machine.Hw.Machine.mem) > addr_stride
      then invalid_arg "Sharded.boot: shard memory exceeds the address stride")
    shards;
  let signer = Crypto.Signature.create ~height:signer_height ?pool:keypool rng in
  (* Bind the federation's aggregate-attestation key into shard 0's TPM
     after shard 0's own signer root: PCR 18 then holds the chain
     [shard-0 root; federation root], and one tier-one quote certifies
     both tiers of the sharded deployment. *)
  Rot.Tpm.extend (Option.get !tpm0) ~pcr:Monitor.key_binding_pcr
    (Crypto.Signature.public_root signer);
  (* Every shard boot re-pointed the trace clock at its own machine;
     the federation's causal order keys off shard 0's counter. *)
  Obs.set_clock (fun () -> Hw.Machine.cycles shards.(0).s_machine);
  { shards;
    cores_per_shard;
    signer;
    signer_lock = Mutex.create ();
    measured = Hashtbl.create 16;
    meas_lock = Mutex.create ();
    persist = None }

let shard_count t = Array.length t.shards
let cores t = Array.length t.shards * t.cores_per_shard
let cores_per_shard t = t.cores_per_shard
let shard_monitor t i = t.shards.(i).s_monitor
let attestation_root t = Crypto.Signature.public_root t.signer
let shard0 t = t.shards.(0)
let boot_quote t ~nonce = Monitor.boot_quote (shard0 t).s_monitor ~nonce
let find_domain t id = Monitor.find_domain (shard0 t).s_monitor id

(* --- front-end redo log --------------------------------------------- *)

let log_record t record =
  match t.persist with
  | None -> ()
  | Some fp ->
    Mutex.protect fp.fp_lock (fun () -> Persist.Group.append fp.fp_group (Op.encode record))

let log_op t ~by call = log_record t (Op.issued by call)

(* --- broadcast, and the calls with front-end bodies -------------------- *)

let divergence what =
  invalid_arg ("Sharded: shard state diverged during " ^ what)

(* Replicated-table ops succeed or fail identically on every shard (the
   decision reads only the domain tables, which broadcast keeps in
   lockstep): run shard 0 first, surface its verdict, and require the
   rest to return the same value. *)
let broadcast t what f =
  match f (shard0 t).s_monitor with
  | Error _ as e -> e
  | Ok v as r ->
    Array.iter
      (fun s ->
        if s.s_index > 0 then
          match f s.s_monitor with Ok v' when v' = v -> () | _ -> divergence what)
      t.shards;
    r

let measured_of t domain = Option.value ~default:[] (Hashtbl.find_opt t.measured domain)

let mark_measured t ~caller ~domain range =
  let sh = addr_shard (Hw.Addr.Range.base range) in
  match local_sub ~shard:sh range with
  | Some local when sh >= 0 && sh < Array.length t.shards ->
    let s = t.shards.(sh) in
    write s (fun () ->
        match Monitor.mark_measured s.s_monitor ~caller ~domain local with
        | Ok () ->
          Mutex.protect t.meas_lock (fun () ->
              Hashtbl.replace t.measured domain (range :: measured_of t domain));
          log_op t ~by:caller (Op.Mark_measured { domain; range });
          Ok Op.R_unit
        | Error e -> Error (tr_error ~shard:sh e))
  | _ -> Error (Monitor.Denied "measured range not held by the domain")

(* Global measured ranges, in declaration order. *)
let global_measured t domain =
  Mutex.protect t.meas_lock (fun () -> List.rev (measured_of t domain))

(* Install a seal digest on every shard through the validated
   {!Monitor.install_seal} path. *)
let install_seal t ~caller ~domain raw =
  broadcast t "seal" (fun m ->
      Result.map_error
        (fun e -> Monitor.Domain_config e)
        (Monitor.install_seal m ~caller ~domain ~measurement:raw))

(* Seal. Validation and measurement happen at the front end — each
   global measured range is hashed on its owning shard's machine — then
   the folded digest is installed on every shard. [Domain.seal] mutates
   only the (replicated) domain record, never the captree, so this is a
   deterministic broadcast, not a 2PC. *)
let seal t ~caller ~domain =
  write_all t (fun () ->
      let* d0 = Option.to_result ~none:(Monitor.Unknown_domain domain) (find_domain t domain) in
      let* () =
        if caller = domain || Domain.created_by d0 = Some caller then Ok ()
        else Error (Monitor.Denied "only the domain or its creator may configure it")
      in
      match Domain.entry_point d0 with
      | None -> Error (Monitor.Domain_config "cannot seal a domain without an entry point")
      | Some entry ->
        let exposed =
          Array.exists
            (fun s ->
              match Monitor.find_domain s.s_monitor domain with
              | None -> false
              | Some d ->
                Monitor.measured_exposures s.s_monitor ~domain (Domain.measured_ranges d)
                <> [])
            t.shards
        in
        if exposed then
          Error (Monitor.Denied "a measured region is already reachable by a foreign domain")
        else begin
          let ranges =
            List.map
              (fun r ->
                let sh = addr_shard (Hw.Addr.Range.base r) in
                let s = t.shards.(sh) in
                let pages =
                  (Hw.Addr.Range.len r + Hw.Addr.page_size - 1) / Hw.Addr.page_size
                in
                Hw.Cycles.charge s.s_machine.Hw.Machine.counter
                  (pages * Hw.Cycles.Cost.measurement_per_page);
                (r, Hw.Physmem.measure s.s_machine.Hw.Machine.mem (lrange ~shard:sh r)))
              (global_measured t domain)
          in
          let digest =
            Measure.domain_digest ~kind:(Domain.kind d0) ~entry_point:entry
              ~flush_on_transition:(Domain.flush_on_transition d0) ~ranges
          in
          let raw = Crypto.Sha256.to_raw digest in
          let* () = install_seal t ~caller ~domain raw in
          log_record t (Op.Issued { by = caller; call = Op.Seal { domain }; digest = raw });
          Ok Op.R_unit
        end)

(* --- two-phase commit: domain destruction --------------------------- *)

let prepare_fault = Fault.register "shard.prepare"
let commit_fault = Fault.register "shard.commit"
let tpc_abort_c = Obs.Metrics.counter "sharded.2pc.abort"
let tpc_commit_c = Obs.Metrics.counter "sharded.2pc.commit"

(* Destroying a domain is the one operation whose mutation set spans
   every shard (the revocation cascade runs wherever the domain holds
   or delegated capabilities), so it carries the 2PC:

     1. guards on every shard (read-only);
     2. PREPARE: open a transaction bracket on every shard and run the
        per-shard cascade into the open journals — any error, or an
        injected fault at [shard.prepare], aborts by rolling every
        journal back (all-or-nothing under fault, same contract as the
        single-monitor [with_txn]);
     3. COMMIT: close every journal. Per-shard commit is infallible
        in-memory work, so a fault injected at [shard.commit] after the
        decision is absorbed (counted, never partial) — the protocol
        has passed its commit point;
     4. post-commit: the un-journaled table removals, then the WAL
        append (redo contract: only fully committed ops reach the log). *)
let destroy t ~caller ~domain =
  write_all t (fun () ->
      let guards =
        Array.fold_left
          (fun acc s ->
            match acc with
            | Error _ -> acc
            | Ok ds -> (
              match Monitor.destroy_guard s.s_monitor ~caller ~domain with
              | Ok d -> Ok (d :: ds)
              | Error e -> Error (tr_error ~shard:s.s_index e)))
          (Ok []) t.shards
      in
      match guards with
      | Error _ as e -> e
      | Ok rev_ds ->
        let ds = Array.of_list (List.rev rev_ds) in
        Array.iter (fun s -> Monitor.txn_begin s.s_monitor) t.shards;
        let rollback_all () =
          Array.iter (fun s -> Monitor.txn_rollback s.s_monitor) t.shards
        in
        (match
           let r =
             Array.fold_left
               (fun acc s ->
                 match acc with
                 | Error _ -> acc
                 | Ok () ->
                   Result.map_error (tr_error ~shard:s.s_index)
                     (Monitor.revoke_all_of s.s_monitor ~domain))
               (Ok ()) t.shards
           in
           (* Prepare is done: every journal holds its slice of the
              cascade. A fault here models losing the coordinator
              before the decision — the only sound outcome is global
              rollback. *)
           Fault.hit prepare_fault;
           r
         with
        | Ok () ->
          Array.iter
            (fun s ->
              (try Fault.hit commit_fault
               with Fault.Injected _ -> Obs.instant "sharded.2pc.commit_fault");
              Monitor.txn_commit s.s_monitor)
            t.shards;
          Array.iteri (fun i s -> Monitor.forget_domain s.s_monitor ds.(i)) t.shards;
          Mutex.protect t.meas_lock (fun () -> Hashtbl.remove t.measured domain);
          Obs.Metrics.incr tpc_commit_c;
          log_op t ~by:caller (Op.Destroy { domain });
          Ok Op.R_unit
        | Error _ as e ->
          rollback_all ();
          Obs.Metrics.incr tpc_abort_c;
          e
        | exception Fault.Injected _ ->
          rollback_all ();
          Obs.Metrics.incr tpc_abort_c;
          Obs.instant "sharded.2pc.abort";
          Error (Monitor.Backend_failure "fault injected before the 2PC commit point (rolled back)")
        | exception e ->
          rollback_all ();
          Obs.Metrics.incr tpc_abort_c;
          raise e))

(* --- indexed queries (epoch/seqlock read path) ---------------------- *)

let caps_of t domain =
  Array.to_list t.shards
  |> List.concat_map (fun s ->
         read s (fun () -> Monitor.caps_of s.s_monitor domain)
         |> List.map (gcap ~shard:s.s_index))

(* [query] on the tree of the shard that owns [res]; [none] off the map. *)
let on_resource t res ~none query =
  let sh = resource_shard t res in
  if sh < 0 || sh >= Array.length t.shards then none
  else
    let s = t.shards.(sh) in
    read s (fun () -> query (Monitor.tree s.s_monitor) (local_resource t ~shard:sh res))

let refcount t res = on_resource t res ~none:0 Cap.Captree.refcount
let holders t res = on_resource t res ~none:[] Cap.Captree.holders

(* --- aggregate attestation ------------------------------------------ *)

(* One body per shard (memoized per shard, under the shard lock — the
   memo table is not safe against concurrent optimistic readers),
   translated into the global namespace and concatenated in shard
   order. Order is immaterial: the attestation payload canonicalizes
   regions by address and cores/devices by id. *)
let attest_body t ~domain =
  Array.fold_left
    (fun acc s ->
      match acc with
      | Error _ -> acc
      | Ok (regions, cores, devices) -> (
        match locked s (fun () -> Monitor.attest_body_of s.s_monitor ~domain) with
        | Error e -> Error (tr_error ~shard:s.s_index e)
        | Ok (r, c, d) ->
          let sh = s.s_index in
          let r =
            List.map
              (fun (rr : Attestation.region_report) ->
                { rr with Attestation.range = grange ~shard:sh rr.Attestation.range })
              r
          in
          let c = List.map (fun (core, rc) -> (gcore t ~shard:sh core, rc)) c in
          Ok (regions @ r, cores @ c, devices @ d)))
    (Ok ([], [], []))
    t.shards

(* The global view of a domain record: shard 0's replica plus the
   front end's global measured-range list. *)
let global_domain t domain =
  match find_domain t domain with
  | None -> Error (Monitor.Unknown_domain domain)
  | Some d ->
    Ok
      ( d,
        Domain.restore ~id:(Domain.id d) ~name:(Domain.name d) ~kind:(Domain.kind d)
          ~created_by:(Domain.created_by d) ~sealed:(Domain.is_sealed d)
          ~entry_point:(Domain.entry_point d) ~measured:(global_measured t domain)
          ~flush_on_transition:(Domain.flush_on_transition d)
          ~measurement:(Domain.measurement d) )

let attest t ~caller ~domain ~nonce =
  let* _ = Option.to_result ~none:(Monitor.Unknown_domain caller) (find_domain t caller) in
  let* d0, global = global_domain t domain in
  let* regions, cores, devices = attest_body t ~domain in
  let encrypted =
    (Monitor.backend (shard0 t).s_monitor).Backend_intf.domain_encrypted d0
  in
  Mutex.protect t.signer_lock (fun () ->
      Ok
        (List.hd
           (Attestation.sign_batch ~signer:t.signer ~nonce
              [ (global, regions, cores, devices, encrypted) ])))

(* --- the timer tick -------------------------------------------------- *)

let current_domain t ~core =
  Monitor.current_domain
    t.shards.(core_shard t core).s_monitor
    ~core:(core_local t core)

let timer_tick t ~core =
  let sh = core_shard t core in
  if core < 0 || sh >= Array.length t.shards then
    Error (Monitor.Bad_transition (Printf.sprintf "no such core: %d" core))
  else
    let s = t.shards.(sh) in
    write s (fun () ->
        match Monitor.timer_tick s.s_monitor ~core:(core_local t core) with
        | Ok d ->
          (* Logged unconditionally (the single-monitor path logs only
             evictions); replaying a no-op tick is itself a no-op. *)
          log_record t (Op.Evicted { core });
          Ok d
        | Error e -> Error (tr_error ~shard:sh e))

(* --- routed calls ----------------------------------------------------- *)

(* Shard-local results carry local capability ids. *)
let tr_result ~shard = function
  | Ok (Op.R_cap c) -> Ok (Op.R_cap (gcap ~shard c))
  | Ok (Op.R_cap_pair (a, b)) -> Ok (Op.R_cap_pair (gcap ~shard a, gcap ~shard b))
  | Ok _ as r -> r
  | Error e -> Error (tr_error ~shard e)

let dispatch t ~caller ~core (call : Api.call) : Api.response =
  (* The one log point of a routed or broadcast call: inside its locks. *)
  let logged ~by r =
    if Result.is_ok r then log_op t ~by call;
    r
  in
  (* Run [local], the call in shard [s]'s ids, on [s]. *)
  let on_shard s ~by ~core local =
    write s (fun () ->
        logged ~by (tr_result ~shard:s.s_index (Monitor.exec s.s_monitor ~caller ~core local)))
  in
  (* A capability call runs on the capability's shard; [localise] puts
     its other operands in that shard's ids. A subrange or split point
     must sit inside the shard's address window. *)
  let on_cap cap localise =
    let sh = cap_shard cap in
    if sh >= Array.length t.shards then
      Error (Monitor.Cap_error (Cap.Captree.No_such_capability cap))
    else Result.bind (localise sh (cap_local cap)) (on_shard t.shards.(sh) ~by:caller ~core)
  in
  let bad = Monitor.Cap_error Cap.Captree.Bad_subrange in
  let sub sh r = Option.to_result ~none:bad (local_sub ~shard:sh r) in
  try
    match call with
    | Op.Create_domain _ | Op.Set_entry_point _ | Op.Set_flush_policy _ ->
      (* An entry point is global configuration data, stored verbatim on
         every shard: the domain must run on a core of the shard that
         holds the entry's backing memory. *)
      write_all t (fun () ->
          logged ~by:caller
            (broadcast t (Op.op_name call) (fun m -> Monitor.exec m ~caller ~core call)))
    | Op.Share r ->
      on_cap r.cap (fun sh cap ->
          match r.subrange with
          | None -> Ok (Op.Share { r with cap })
          | Some s -> Result.map (fun l -> Op.Share { r with cap; subrange = Some l }) (sub sh s))
    | Op.Grant r -> on_cap r.cap (fun _ cap -> Ok (Op.Grant { r with cap }))
    | Op.Split { cap; at } ->
      on_cap cap (fun sh cap ->
          let at = at - (sh * addr_stride) in
          if at < 0 || at >= addr_stride then Error bad else Ok (Op.Split { cap; at }))
    | Op.Carve { cap; subrange } ->
      on_cap cap (fun sh cap ->
          Result.map (fun subrange -> Op.Carve { cap; subrange }) (sub sh subrange))
    | Op.Revoke { cap } -> on_cap cap (fun _ cap -> Ok (Op.Revoke { cap }))
    | Op.Call _ | Op.Return ->
      on_shard t.shards.(core_shard t core) ~by:core ~core:(core_local t core) call
    | Op.Mark_measured { domain; range } -> mark_measured t ~caller ~domain range
    | Op.Seal { domain } -> seal t ~caller ~domain
    | Op.Destroy { domain } -> destroy t ~caller ~domain
    | Op.Enumerate -> Ok (Op.R_caps (caps_of t caller))
    | Op.Attest { domain; nonce } ->
      Result.map (fun a -> Op.R_attestation a) (attest t ~caller ~domain ~nonce)
  with
  | Invalid_argument msg -> Error (Monitor.Denied ("invalid argument: " ^ msg))
  | Failure msg -> Error (Monitor.Denied ("failure: " ^ msg))

(* --- durability ------------------------------------------------------ *)

(* The group-commit clock: flush waits in shard 0's cycles. *)
let cycles t () = Hw.Machine.cycles (shard0 t).s_machine

let arm t group = t.persist <- Some { fp_group = group; fp_lock = Mutex.create () }

let enable_persistence t ~store ?fsync_every () =
  arm t (Persist.Group.create ?max_batch:fsync_every ~now:(cycles t) store)

let flush t =
  match t.persist with
  | None -> ()
  | Some fp -> Mutex.protect fp.fp_lock (fun () -> Persist.Group.flush fp.fp_group)

let persist_seq t = Option.map (fun fp -> Persist.Group.seq fp.fp_group) t.persist
let durable_seq t = Option.map (fun fp -> Persist.Group.durable_seq fp.fp_group) t.persist

(* Replay one global-id record (logging is not armed yet) through
   [dispatch], as [Monitor]'s replay does through [Monitor.exec]. Memory
   contents are not durable, so a [Seal] installs the recorded digest
   on every shard instead of re-measuring. *)
let replay_record t payload =
  let mon call r =
    Result.map_error
      (fun e -> Format.asprintf "%a: %s" Op.pp_call call (Monitor.error_to_string e))
      (Result.map ignore r)
  in
  match Op.decode payload with
  | Error why -> Error ("undecodable record: " ^ why)
  | Ok (Op.Evicted { core }) ->
    Result.map_error Monitor.error_to_string (Result.map ignore (timer_tick t ~core))
  | Ok (Op.Issued { by = caller; call = Op.Seal { domain }; digest }) ->
    Result.map_error Monitor.error_to_string
      (write_all t (fun () -> install_seal t ~caller ~domain digest))
  | Ok (Op.Issued { by; call = (Op.Call _ | Op.Return) as call; _ }) ->
    mon call (dispatch t ~caller:(current_domain t ~core:by) ~core:by call)
  | Ok (Op.Issued { by; call; _ }) -> mon call (dispatch t ~caller:by ~core:0 call)

type recovery_report = {
  sr_wal_records : int;
  sr_replayed : int;
  sr_wal_truncated : bool;
  sr_stopped_early : string option;
}

(* Crash-restart for a sharded deployment: boot a fresh federation and
   redo the whole front-end WAL through the sharded dispatch (the
   front end keeps no checkpoints — its log is the full history; shard
   checkpointing is future work). [Persist.Group.recover] masks fault
   injection during replay and cuts what it could not replay, as for
   [Monitor.recover]. *)
let recover ~shards ?signer_height ?keypool ?fsync_every ~rng ~mk ~store () =
  let t = boot ~shards ?signer_height ?keypool ~rng ~mk () in
  let group, r =
    Persist.Group.recover ?max_batch:fsync_every ~now:(cycles t) store ~after:0 (replay_record t)
  in
  arm t group;
  ( t,
    { sr_wal_records = r.Persist.Group.records;
      sr_replayed = r.Persist.Group.replayed;
      sr_wal_truncated = r.Persist.Group.cut;
      sr_stopped_early = r.Persist.Group.stopped } )
