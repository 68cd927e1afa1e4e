(* A stock of (seed, leaf digest) handles: [take] pops one (generating
   on demand when empty), and [replenish] — called eagerly by
   [Signature.sign] — refills the stock to [target] below [low_water]. *)

type t = {
  rng : Rng.t;
  stock : (Ots.secret_key * Sha256.digest) Queue.t;
  (* Guards [stock], [hits] and [misses]: concurrent attests (one per
     monitor shard) all take from one pool. Key *generation* never runs
     under the lock — a take that misses and a replenish both generate
     outside it, so the critical section is a queue pop or push. *)
  lock : Mutex.t;
  target : int;
  low_water : int;
  mutable hits : int;    (* takes served from stock *)
  mutable misses : int;  (* takes that had to generate *)
}

let default_target = 128

let generate rng =
  let sk, pk = Ots.generate rng in
  (sk, Ots.public_key_digest pk)

(* Graceful-degradation injection points: a failed take degrades to
   on-demand generation (a miss, visible in [stats]); a failed
   replenish leaves the stock low until the next one succeeds. Neither
   can make a signature fail — the pool only changes *when* keys are
   generated. *)
let hit_c = Obs.Metrics.counter "keypool.hit"
let miss_c = Obs.Metrics.counter "keypool.miss"
let stock_g = Obs.Metrics.gauge "keypool.stock"

let take_fault = Fault.register "keypool.take"
let replenish_fault = Fault.register "keypool.replenish"

let create ?low_water ?(target = default_target) rng =
  if target < 0 then invalid_arg "Keypool.create: negative target";
  let low_water = match low_water with Some l -> l | None -> target / 2 in
  if low_water < 0 || low_water > target then
    invalid_arg "Keypool.create: low_water out of range";
  let t =
    { rng; stock = Queue.create (); lock = Mutex.create (); target; low_water;
      hits = 0; misses = 0 }
  in
  for _ = 1 to target do
    Queue.add (generate rng) t.stock
  done;
  t

let size t = Mutex.protect t.lock (fun () -> Queue.length t.stock)
let low_water t = t.low_water
let target t = t.target

let take t =
  Obs.Profile.span "keypool.take" (fun () ->
      let faulted = Fault.fires take_fault in
      let popped =
        Mutex.protect t.lock (fun () ->
            let p = if faulted then None else Queue.take_opt t.stock in
            (match p with
            | Some _ -> t.hits <- t.hits + 1
            | None -> t.misses <- t.misses + 1);
            p)
      in
      match popped with
      | Some handle ->
          Obs.Metrics.incr hit_c;
          handle
      | None ->
          Obs.Metrics.incr miss_c;
          (* Miss: generate outside the lock, other takers keep going. *)
          generate t.rng)

let replenish t =
  Obs.Profile.span "keypool.replenish" (fun () ->
      if Fault.fires replenish_fault then ()
      else begin
        let need =
          Mutex.protect t.lock (fun () ->
              let n = Queue.length t.stock in
              if n < t.low_water then t.target - n else 0)
        in
        if need > 0 then begin
          (* The expensive part (walking every chain for the leaf) runs
             outside the lock: concurrent signers keep taking from the
             stock while one of them rebuilds it. *)
          let fresh = List.init need (fun _ -> generate t.rng) in
          Mutex.protect t.lock (fun () ->
              List.iter (fun handle -> Queue.add handle t.stock) fresh)
        end
      end;
      Obs.Metrics.set_gauge stock_g (size t))

let stats t = Mutex.protect t.lock (fun () -> (t.hits, t.misses))

let miss_rate t =
  let hits, misses = stats t in
  let total = hits + misses in
  if total = 0 then 0. else float_of_int misses /. float_of_int total
