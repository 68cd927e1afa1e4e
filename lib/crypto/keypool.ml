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

let leaf seed = Ots.public_key_digest (Ots.public_key seed)

let generate rng =
  let seed = Ots.draw rng in
  (seed, leaf seed)

(* Seeds are drawn in order here; a leaf is a pure function of its seed,
   so slice [k] of the leaves is computed on domain [k] (0: the caller).
   Spawning is best-effort: OCaml 5.1 caps live domains at 128, so a
   slice whose domain cannot start runs on the caller instead. *)
let generate_batch rng n =
  let seeds = Array.init n (fun _ -> Ots.draw rng) in
  let leaves = Array.make n Sha256.zero in
  let slices = max 1 (min n (Domain.recommended_domain_count ())) in
  let slice k () =
    for i = k * n / slices to ((k + 1) * n / slices) - 1 do
      leaves.(i) <- leaf seeds.(i)
    done
  in
  let spawn k = try Some (Domain.spawn (slice k)) with Failure _ -> None in
  let helpers = List.init (slices - 1) (fun k -> spawn (k + 1)) in
  Fun.protect
    ~finally:(fun () -> List.iter (Option.iter Domain.join) helpers)
    (fun () ->
      List.iteri (fun k h -> if Option.is_none h then slice (k + 1) ()) helpers;
      slice 0 ());
  Array.map2 (fun seed l -> (seed, l)) seeds leaves

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
  Array.iter (fun handle -> Queue.add handle t.stock) (generate_batch rng target);
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
          let fresh = generate_batch t.rng need in
          Mutex.protect t.lock (fun () ->
              Array.iter (fun handle -> Queue.add handle t.stock) fresh)
        end
      end;
      Obs.Metrics.set_gauge stock_g (size t))

let stats t = Mutex.protect t.lock (fun () -> (t.hits, t.misses))

let miss_rate t =
  let hits, misses = stats t in
  let total = hits + misses in
  if total = 0 then 0. else float_of_int misses /. float_of_int total
