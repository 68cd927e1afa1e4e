(* Shared machinery for the three workloads: the clock, sample sinks,
   the metered block device, the traced-run wrappers around the
   backend and store records the benchmark builds itself, and metric
   reporting.

   Every sample is timed with the nanosecond monotonic clock from
   bechamel, which does not allocate; [Unix.gettimeofday] would
   quantise the 5-10 us medians into steps of 10-20%. *)

let now () = Int64.to_int (Monotonic_clock.now ())

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Check_failed msg)) fmt

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  (* Nearest-rank quantile of the recorded values; [None] when empty. *)
  let quantile t q =
    if t.n = 0 then None
    else begin
      let b = Array.sub t.a 0 t.n in
      Array.sort Float.compare b;
      Some b.(int_of_float (Float.round (q *. float_of_int (t.n - 1))))
    end

  let median t = quantile t 0.5

  let append ~into t =
    for i = 0 to t.n - 1 do
      add into t.a.(i)
    done
end

(* --- the block device ----------------------------------------------- *)

(* Every store is [Persist.Store.mem], the simulated block device, so
   timings measure the program and not the host's disk. The device
   reports its cost as exact counts: bytes appended or replaced, and
   fsync barriers, per blob. Counting is an integer add per call and
   reads no clock; a traced device also times every call. *)

type blob = {
  b_name : string;
  mutable bytes : int;
  mutable appends : int;
  mutable fsyncs : int;
}

type device = {
  inner : Persist.Store.t;
  mutable store : Persist.Store.t;
  blobs : blob array;
  mutable busy_ns : int;
  mutable wrote_ckpt : bool;
      (* A traced append reached the snapshot or segment stream since
         the flag was last cleared: the current call wrote a
         checkpoint. *)
}

let fleet_blob = "fleet"

let blob_names =
  [| Persist.Store.wal_blob; Persist.Store.snap_blob; Persist.Store.seg_blob; fleet_blob;
     "other" |]

let blob_of d name =
  let last = Array.length d.blobs - 1 in
  let rec go i =
    if i = last || String.equal d.blobs.(i).b_name name then d.blobs.(i) else go (i + 1)
  in
  go 0

let device ~traced () =
  let inner = Persist.Store.mem () in
  let d =
    { inner;
      store = inner;
      blobs =
        Array.map
          (fun b_name -> { b_name; bytes = 0; appends = 0; fsyncs = 0 })
          blob_names;
      busy_ns = 0;
      wrote_ckpt = false }
  in
  let count_append name data =
    let b = blob_of d name in
    b.bytes <- b.bytes + String.length data;
    b.appends <- b.appends + 1;
    b
  in
  let count_replace name data =
    let b = blob_of d name in
    b.bytes <- b.bytes + String.length data;
    b
  in
  let count_fsync name =
    let b = blob_of d name in
    b.fsyncs <- b.fsyncs + 1;
    b
  in
  let timed f =
    let t0 = now () in
    let r = f () in
    d.busy_ns <- d.busy_ns + (now () - t0);
    r
  in
  d.store <-
    (if not traced then
       { inner with
         Persist.Store.append =
           (fun name data ->
             ignore (count_append name data : blob);
             inner.Persist.Store.append name data);
         replace =
           (fun name data ->
             ignore (count_replace name data : blob);
             inner.Persist.Store.replace name data);
         fsync =
           (fun name ->
             ignore (count_fsync name : blob);
             inner.Persist.Store.fsync name) }
     else
       { inner with
         Persist.Store.append =
           (fun name data ->
             let b = count_append name data in
             if b != d.blobs.(0) && b != d.blobs.(3) then d.wrote_ckpt <- true;
             timed (fun () -> inner.Persist.Store.append name data));
         replace =
           (fun name data ->
             ignore (count_replace name data : blob);
             timed (fun () -> inner.Persist.Store.replace name data));
         fsync =
           (fun name ->
             ignore (count_fsync name : blob);
             timed (fun () -> inner.Persist.Store.fsync name));
         read = (fun name -> timed (fun () -> inner.Persist.Store.read name));
         reset = (fun name -> timed (fun () -> inner.Persist.Store.reset name));
         truncate = (fun name keep -> timed (fun () -> inner.Persist.Store.truncate name keep)) });
  d

let reset_device d =
  Array.iter
    (fun b ->
      b.bytes <- 0;
      b.appends <- 0;
      b.fsyncs <- 0)
    d.blobs;
  d.busy_ns <- 0;
  d.wrote_ckpt <- false

let total_bytes ds =
  List.fold_left (fun acc d -> Array.fold_left (fun a b -> a + b.bytes) acc d.blobs) 0 ds

let total_fsyncs ds =
  List.fold_left (fun acc d -> Array.fold_left (fun a b -> a + b.fsyncs) acc d.blobs) 0 ds

(* Power failure: drop every pending write, then read back what a
   restart would find. *)
let crash d =
  d.inner.Persist.Store.power_fail ();
  Array.to_list (Array.map (fun b -> (b.b_name, d.inner.Persist.Store.read b.b_name)) d.blobs)

(* A fresh device holding exactly the given durable contents, so one
   crashed store can be recovered several times. *)
let restore contents =
  let s = Persist.Store.mem () in
  List.iter
    (fun (name, bytes) ->
      if bytes <> "" then begin
        s.Persist.Store.append name bytes;
        s.Persist.Store.fsync name
      end)
    contents;
  s

let wal_records contents =
  match List.assoc_opt Persist.Store.wal_blob contents with
  | Some bytes -> List.length (Persist.Wal.parse bytes).Persist.Wal.records
  | None -> 0

(* --- the traced backend --------------------------------------------- *)

type btrace = {
  mutable attach_ns : int;
  mutable attach_n : int;
  mutable detach_ns : int;
  mutable detach_n : int;
  mutable commit_ns : int;
  mutable commit_n : int;
  mutable trans_ns : int;
  mutable trans_n : int;
  mutable trans_cycles : int;
  mutable other_ns : int;
  mutable rollbacks : int;
  mutable cycles_in : int;
}

let btrace () =
  { attach_ns = 0; attach_n = 0; detach_ns = 0; detach_n = 0; commit_ns = 0; commit_n = 0;
    trans_ns = 0; trans_n = 0; trans_cycles = 0; other_ns = 0; rollbacks = 0; cycles_in = 0 }

let reset_btrace t =
  t.attach_ns <- 0;
  t.attach_n <- 0;
  t.detach_ns <- 0;
  t.detach_n <- 0;
  t.commit_ns <- 0;
  t.commit_n <- 0;
  t.trans_ns <- 0;
  t.trans_n <- 0;
  t.trans_cycles <- 0;
  t.other_ns <- 0;
  t.rollbacks <- 0;
  t.cycles_in <- 0

let backend_ns t = t.attach_ns + t.detach_ns + t.commit_ns + t.trans_ns + t.other_ns

(* Wrap the backend record the benchmark built, timing every call the
   monitor makes into it and the simulated cycles it charges. *)
let trace_backend t (machine : Hw.Machine.t) (b : Tyche.Backend_intf.t) =
  let cycles () = Hw.Machine.cycles machine in
  let other f =
    let c0 = cycles () and t0 = now () in
    let r = f () in
    t.other_ns <- t.other_ns + (now () - t0);
    t.cycles_in <- t.cycles_in + (cycles () - c0);
    r
  in
  { b with
    Tyche.Backend_intf.apply_effect =
      (fun eff ->
        let c0 = cycles () and t0 = now () in
        let r = b.Tyche.Backend_intf.apply_effect eff in
        let dt = now () - t0 in
        t.cycles_in <- t.cycles_in + (cycles () - c0);
        (match eff with
        | Cap.Captree.Attach _ ->
          t.attach_ns <- t.attach_ns + dt;
          t.attach_n <- t.attach_n + 1
        | Cap.Captree.Detach _ ->
          t.detach_ns <- t.detach_ns + dt;
          t.detach_n <- t.detach_n + 1);
        r);
    txn_commit =
      (fun () ->
        let c0 = cycles () and t0 = now () in
        b.Tyche.Backend_intf.txn_commit ();
        t.commit_ns <- t.commit_ns + (now () - t0);
        t.commit_n <- t.commit_n + 1;
        t.cycles_in <- t.cycles_in + (cycles () - c0));
    transition =
      (fun ~core ~from_ ~to_ ~flush_microarch ->
        let c0 = cycles () and t0 = now () in
        let r = b.Tyche.Backend_intf.transition ~core ~from_ ~to_ ~flush_microarch in
        let dc = cycles () - c0 in
        t.trans_ns <- t.trans_ns + (now () - t0);
        t.trans_n <- t.trans_n + 1;
        t.trans_cycles <- t.trans_cycles + dc;
        t.cycles_in <- t.cycles_in + dc;
        r);
    validate_attach = (fun d r -> other (fun () -> b.Tyche.Backend_intf.validate_attach d r));
    domain_created = (fun d -> other (fun () -> b.Tyche.Backend_intf.domain_created d));
    domain_destroyed = (fun d -> other (fun () -> b.Tyche.Backend_intf.domain_destroyed d));
    txn_begin = (fun () -> other b.Tyche.Backend_intf.txn_begin);
    txn_rollback =
      (fun () ->
        t.rollbacks <- t.rollbacks + 1;
        other b.Tyche.Backend_intf.txn_rollback) }

(* --- one timed phase ------------------------------------------------ *)

type run = {
  lat : Samples.t; (* every operation, ns *)
  teardown : Samples.t; (* Revoke and Destroy (fleet: revoke to convergence), ns *)
  mutable teardown_caps : int; (* captree nodes the teardowns removed *)
  special : Samples.t; (* attest + verify, or delegate to convergence, ns *)
  verify : Samples.t; (* the client's Attestation.verify alone, ns *)
  victims : Samples.t; (* captree nodes removed, per teardown *)
  hot : Samples.t; (* traced runs: largest caps_of at a teardown *)
  per_op : (string, Samples.t) Hashtbl.t; (* traced runs: latency per API op *)
  ckpt : Samples.t; (* traced runs: calls that wrote a checkpoint, ns *)
  mutable ops : int;
  mutable failed : int;
  mutable first_error : string option;
}

let new_run () =
  { lat = Samples.create ();
    teardown = Samples.create ();
    teardown_caps = 0;
    special = Samples.create ();
    verify = Samples.create ();
    victims = Samples.create ();
    hot = Samples.create ();
    per_op = Hashtbl.create 16;
    ckpt = Samples.create ();
    ops = 0;
    failed = 0;
    first_error = None }

let note_op run ~name dt =
  run.ops <- run.ops + 1;
  Samples.add run.lat (float_of_int dt);
  let s =
    match Hashtbl.find_opt run.per_op name with
    | Some s -> s
    | None ->
      let s = Samples.create () in
      Hashtbl.replace run.per_op name s;
      s
  in
  Samples.add s (float_of_int dt)

let note_failure run what =
  run.failed <- run.failed + 1;
  if run.first_error = None then run.first_error <- Some what

let merge_run ~into r =
  List.iter
    (fun (d, s) -> Samples.append ~into:d s)
    [ (into.lat, r.lat); (into.teardown, r.teardown); (into.special, r.special);
      (into.verify, r.verify); (into.victims, r.victims) ];
  into.teardown_caps <- into.teardown_caps + r.teardown_caps;
  into.ops <- into.ops + r.ops;
  into.failed <- into.failed + r.failed;
  if into.first_error = None then into.first_error <- r.first_error

let note_teardown run ~removed dt =
  Samples.add run.teardown (float_of_int dt);
  Samples.add run.victims (float_of_int removed);
  run.teardown_caps <- run.teardown_caps + removed

(* --- simulated hosts ------------------------------------------------- *)

let firmware = "perfbench-firmware-1"
let loader = "perfbench-loader-1"
let monitor_image = "tyche-monitor-perfbench"

type host = {
  machine : Hw.Machine.t;
  backend : Tyche.Backend_intf.t; (* as built, for Backend_x86's counters *)
  used : Tyche.Backend_intf.t; (* what the monitor drives: traced or not *)
  tpm : Rot.Tpm.t;
  rng : Crypto.Rng.t;
  monitor_range : Hw.Addr.Range.t;
}

(* A measured-booted x86 machine. The platform's own randomness (TPM and
   monitor keys) comes from a fixed seed: the workload seed feeds only
   the generator, so the monitor sees nothing but the calls it makes. *)
let host ?bt ~cores ~mem_size ~platform () =
  let machine = Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores ~mem_size () in
  let rng = Crypto.Rng.create ~seed:(Int64.of_int platform) in
  let tpm = Rot.Tpm.create rng in
  let report = Rot.Boot.measured_boot tpm machine ~firmware ~loader ~monitor_image in
  let backend = Backend_x86.create machine () in
  let used = match bt with Some t -> trace_backend t machine backend | None -> backend in
  { machine; backend; used; tpm; rng; monitor_range = report.Rot.Boot.monitor_range }

(* The smallest signer height whose 2^h one-time keys cover [attests]:
   an exhausted signer fails every later Attest. *)
let max_signer_height = 12

let signer_height attests =
  let rec go h = if 1 lsl h >= attests then h else go (h + 1) in
  let h = go 0 in
  if h > max_signer_height then
    fail "the run would issue %d attestations, more than the largest signer (2^%d) holds"
      attests max_signer_height;
  h

(* Pregenerate a signer's one-time keys, so set-up can report the time
   key generation takes on its own. The pool is never refilled. *)
let keypool ~height ~platform =
  let t0 = now () in
  let pool =
    Crypto.Keypool.create ~low_water:0 ~target:(1 lsl height)
      (Crypto.Rng.create ~seed:(Int64.of_int (platform + 0x4b)))
  in
  (pool, float_of_int (now () - t0) /. 1e9)

(* The client's view of a monitor: it trusts the attestation root only
   after the TPM quote binds it (PCR 18) to the measured boot. *)
let client_root h ~claimed ~quote_of =
  let nonce = "perfbench-client" in
  match
    Verifier.Chain.verify_boot ~tpm_root:(Rot.Tpm.endorsement_root h.tpm)
      ~expected_pcrs:(Rot.Boot.expected_pcrs ~firmware ~loader ~monitor_image)
      ~claimed_monitor_root:claimed ~nonce (quote_of ~nonce)
  with
  | Ok () -> claimed
  | Error e -> fail "boot quote does not verify: %s" e

let check_invariants what m =
  match Tyche.Invariants.check_all m with
  | [] -> ()
  | v :: _ ->
    fail "%s: invariant violated: %s" what (Format.asprintf "%a" Tyche.Invariants.pp_violation v)

let check_fsck what m =
  let r = Tyche.Fsck.check m in
  if not (Tyche.Fsck.ok r) then fail "%s: fsck: %s" what (Format.asprintf "%a" Tyche.Fsck.pp r)

let memory_range tree cap =
  match Cap.Captree.resource tree cap with
  | Some (Cap.Resource.Memory r) -> Some r
  | _ -> None

(* Domain 0's largest memory capability. *)
let largest_memory m =
  let tree = Tyche.Monitor.tree m in
  let size c = match memory_range tree c with Some r -> Hw.Addr.Range.len r | None -> 0 in
  match Tyche.Monitor.caps_of m Tyche.Domain.initial with
  | [] -> fail "domain 0 holds no capabilities"
  | c :: cs -> List.fold_left (fun best c -> if size c > size best then c else best) c cs

let core_cap m core =
  match
    List.find_opt
      (fun c -> Cap.Captree.resource (Tyche.Monitor.tree m) c = Some (Cap.Resource.Cpu_core core))
      (Tyche.Monitor.caps_of m Tyche.Domain.initial)
  with
  | Some c -> c
  | None -> fail "domain 0 holds no capability for core %d" core

let holders_of tree addr =
  Cap.Captree.holders tree (Cap.Resource.Memory (Hw.Addr.Range.make ~base:addr ~len:Hw.Addr.page_size))

(* --- metrics -------------------------------------------------------- *)

type metric = { name : string; value : float option; unit_ : string; n : int }

let metric ?(n = 1) name unit_ value = { name; value = Some value; unit_; n }
let na name unit_ = { name; value = None; unit_; n = 0 }

let opt_metric ~n name unit_ = function
  | Some v -> { name; value = Some v; unit_; n }
  | None -> na name unit_

let us_of_ns v = v /. 1000.
let ratio a b = if b = 0. then 0. else a /. b
let per_op ~ops v = ratio v (float_of_int ops)
