type t = {
  store : Store.t;
  blob : string;
  max_batch : int;
  now : unit -> int;
  instrument : bool;
  mutable pending : int;
  mutable first_stamp : int;
  mutable durable_seq : int;
  mutable tail_seq : int;
}

let h_batch = Obs.Metrics.histogram "persist.group.batch"
let h_wait = Obs.Metrics.histogram "persist.group.flush_wait"
let c_flush = Obs.Metrics.counter "persist.group.flushes"

let create ?(max_batch = 1) ?(now = fun () -> 0) store ~blob ~durable_seq =
  let max_batch = max 1 max_batch in
  {
    store;
    blob;
    max_batch;
    now;
    (* A queue that never batches (max_batch 1) has no amortization to
       report; skipping its metrics keeps the per-op fsync path exactly
       as cheap as before group commit existed. *)
    instrument = max_batch > 1;
    pending = 0;
    first_stamp = 0;
    durable_seq;
    tail_seq = durable_seq;
  }

let pending t = t.pending
let durable_seq t = t.durable_seq

let flush t =
  if t.pending > 0 then begin
    let batch = t.pending in
    (* Clear before the fsync: if the injected power failure fires, the
       pending records are gone from the medium and this queue's monitor
       is dead — recovery starts from the durable prefix. *)
    t.pending <- 0;
    Store.fsync t.store t.blob;
    t.durable_seq <- t.tail_seq;
    if t.instrument then begin
      Obs.Metrics.incr c_flush;
      Obs.Metrics.observe h_batch batch;
      Obs.Metrics.observe h_wait (t.now () - t.first_stamp)
    end
  end

let append t ~seq payload =
  if t.pending = 0 && t.instrument then t.first_stamp <- t.now ();
  Wal.append t.store ~blob:t.blob ~seq payload;
  t.pending <- t.pending + 1;
  t.tail_seq <- seq;
  if t.pending >= t.max_batch then flush t

let note_durable t ~seq =
  if seq > t.tail_seq then t.tail_seq <- seq;
  if seq > t.durable_seq then t.durable_seq <- seq;
  (* A checkpoint covering the whole tail retires the batch: the WAL
     records it subsumes are about to be compacted away. *)
  if t.durable_seq >= t.tail_seq then t.pending <- 0
