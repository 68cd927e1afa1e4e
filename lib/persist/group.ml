type t = {
  store : Store.t;
  blob : string;
  max_batch : int;
  now : unit -> int;
  instrument : bool;
  mutable queued : (int * string) list; (* pending records, newest first *)
  mutable pending : int;
  mutable first_stamp : int;
  mutable durable_seq : int;
  mutable tail_seq : int;
}

let h_batch = Obs.Metrics.histogram "persist.group.batch"
let h_wait = Obs.Metrics.histogram "persist.group.flush_wait"
let c_flush = Obs.Metrics.counter "persist.group.flushes"

let create ?(max_batch = 1) ?(now = fun () -> 0) store =
  if max_batch < 1 then invalid_arg "Persist.Group.create: max_batch";
  {
    store;
    blob = Store.wal_blob;
    max_batch;
    now;
    (* A queue that never batches (max_batch 1) has no amortization to
       report; skipping its metrics keeps clock reads and histogram
       updates off the per-op fsync path. *)
    instrument = max_batch > 1;
    queued = [];
    pending = 0;
    first_stamp = 0;
    durable_seq = 0;
    tail_seq = 0;
  }

let pending t = t.pending
let durable_seq t = t.durable_seq
let seq t = t.tail_seq

let flush t =
  if t.pending > 0 then begin
    let batch = t.pending and records = List.rev t.queued in
    (* Clear before the write: if the injected power failure fires, the
       pending records are gone from the medium (or torn) and this
       queue's monitor is dead — recovery starts from the durable prefix. *)
    t.pending <- 0;
    t.queued <- [];
    Store.append t.store t.blob (Wal.frames records);
    Store.fsync t.store t.blob;
    t.durable_seq <- t.tail_seq;
    if t.instrument then begin
      Obs.Metrics.incr c_flush;
      Obs.Metrics.observe h_batch batch;
      Obs.Metrics.observe h_wait (t.now () - t.first_stamp)
    end
  end

let append t payload =
  if t.pending = 0 && t.instrument then t.first_stamp <- t.now ();
  t.tail_seq <- t.tail_seq + 1;
  t.queued <- (t.tail_seq, payload) :: t.queued;
  t.pending <- t.pending + 1;
  if t.pending >= t.max_batch then flush t

(* Rewrite the log as [records], in one atomic swap: a crash leaves the
   old log or the new one. *)
let rewrite t records = Store.replace t.store t.blob (Wal.frames records)

let install t payloads =
  t.pending <- 0;
  t.queued <- [];
  rewrite t (List.mapi (fun i p -> (i + 1, p)) payloads);
  t.tail_seq <- List.length payloads;
  t.durable_seq <- t.tail_seq

let note_durable t ~seq =
  if seq > t.durable_seq then t.durable_seq <- seq;
  (* A checkpoint covering the whole tail retires the batch: its
     records are never written. *)
  if t.durable_seq >= t.tail_seq then (t.pending <- 0; t.queued <- []);
  (* Drop the covered prefix; replay skips covered records if a crash
     keeps the full log. *)
  let wal = Wal.read t.store ~blob:t.blob in
  let keep = List.filter (fun (s, _) -> s > seq) wal.Wal.records in
  if wal.Wal.truncated || List.compare_lengths keep wal.Wal.records < 0 then rewrite t keep

let reopen ~blob store replay =
  let log = Wal.read store ~blob in
  replay log.Wal.records;
  (* A frame behind a torn tail would be unreachable; a refused log stays as it was. *)
  if log.Wal.truncated then Store.truncate store blob log.Wal.valid_bytes;
  let seq = List.fold_left (fun _ (seq, _) -> seq) 0 log.Wal.records in
  { (create store) with
    blob; max_batch = max_int; instrument = false; durable_seq = seq; tail_seq = seq }

type recovery = {
  records : int;
  replayed : int;
  cut : bool;
  stopped : string option;
}

let recover ?max_batch ?now store ~after apply =
  let t = create ?max_batch ?now store in
  let wal = Wal.read store ~blob:Store.wal_blob in
  (* Injecting faults into operations that committed once would diverge
     from the durable history. *)
  let r = Fault.suspend (fun () -> Wal.replay wal ~after apply) in
  (* A frame appended behind a torn or unreplayed tail would be
     unreachable, and a cut at the batch frame replay stopped inside
     would leave a seq gap: keep exactly the records applied. This is
     new durable work, so it runs unmasked. *)
  let cut = wal.Wal.truncated || r.Wal.stopped <> None in
  if cut then
    rewrite t
      (List.to_seq wal.Wal.records
      |> Seq.filter (fun (seq, _) -> seq > after)
      |> Seq.take r.Wal.applied |> List.of_seq);
  t.durable_seq <- r.Wal.last_seq;
  t.tail_seq <- r.Wal.last_seq;
  let records = List.length wal.Wal.records in
  (t, { records; replayed = r.Wal.applied; cut; stopped = r.Wal.stopped })
