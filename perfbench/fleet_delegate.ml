(* fleet_delegate — why it exists: it is the only workload that crosses
   machines, exercising HMAC'd frames, the journal-then-ack fleet log
   and frozen proxy caps; the proxy domain holds every live delegated
   cap, so each revoke's local cascade also loads trim_detach. Two
   Monitors, alpha and beta, each with its own store and its own
   Distributed.Fleet endpoint on one Network; session keys are set in
   set-up. Each step delegates a fresh page from a random side to the
   other, or revokes the oldest live delegation, then pumps poll/tick
   until both endpoints are idle. The population holds about 2,000 live
   delegations. A seeded adversary duplicates a pending datagram on 1
   pump in 16 and reorders a queue whenever two or more datagrams are
   pending; it never drops or partitions. No tenant lifecycle calls. *)

open Harness
module Fleet = Distributed.Fleet
module Network = Distributed.Network

let name = "fleet_delegate"
let rate = 1500
let chunk = 500
let recoveries = 5
let cores = 4
let mem_size = 16 * 1024 * 1024
let target = 2000
let pool_pages = 3000
let platform = 0xf1e
let os = Tyche.Domain.initial
let page = Hw.Addr.page_size
let key = "perfbench-fleet-session-key-0001"
let names = [| "alpha"; "beta" |]

type side = {
  host : host;
  m : Tyche.Monitor.t;
  dev : device;
  fleet : Fleet.t;
  proxy : int; (* the peer's proxy domain here *)
  mem_cap : int;
  base : int; (* first page of the delegation pool *)
  free : int Queue.t; (* free page indices, recycled in order *)
}

type live = { from : int; del_id : int; proxy_cap : int; addr : int }

type t = {
  seed : int;
  net : Network.t;
  side : side array;
  bt : btrace option;
  rng : Random.State.t;
  live : live Queue.t;
  mutable run : run;
  mutable ticks : int;
  pump_ns : Samples.t;
  call_ns : Samples.t;
  mutable msgs0 : int;
  mutable bytes0 : int;
  mutable dup0 : int;
  mutable reord0 : int;
  keygen_s : float;
}

let run w = w.run
let cycles w = Array.fold_left (fun a s -> a + Hw.Machine.cycles s.host.machine) 0 w.side
let devices w = Array.to_list (Array.map (fun s -> s.dev) w.side)
let btrace w = w.bt
let keygen_s w = w.keygen_s

let nodes w =
  Array.fold_left (fun a s -> a + Cap.Captree.node_count (Tyche.Monitor.tree s.m)) 0 w.side

let idle w = Array.for_all (fun s -> Fleet.idle s.fleet) w.side

(* One pump: the adversary acts on the queues, both endpoints drain
   their datagrams, then both advance logical time. *)
let pump w =
  let rounds = ref 0 in
  while not (idle w) do
    incr rounds;
    if !rounds > 10_000 then fail "%s: the fleet did not converge" name;
    let t0 = now () in
    if Random.State.int w.rng 16 = 0 then
      ignore
        (Network.duplicate w.net names.(Random.State.int w.rng 2) ~seed:(Random.State.bits w.rng)
          : bool);
    Array.iter
      (fun ep ->
        if Network.pending w.net ep >= 2 then
          ignore (Network.reorder w.net ep ~seed:(Random.State.bits w.rng) : bool))
      names;
    Array.iter (fun s -> ignore (Fleet.poll s.fleet : int)) w.side;
    Array.iter (fun s -> Fleet.tick s.fleet) w.side;
    w.ticks <- w.ticks + 2;
    if w.bt <> None then Samples.add w.pump_ns (float_of_int (now () - t0))
  done

(* Traced runs: an operation during which either monitor wrote a
   checkpoint counts toward the checkpoint stall. *)
let note_ckpt w dt =
  if Array.exists (fun s -> s.dev.wrote_ckpt) w.side then begin
    Samples.add w.run.ckpt (float_of_int dt);
    Array.iter (fun s -> s.dev.wrote_ckpt <- false) w.side
  end

let delegate w =
  let from = Random.State.int w.rng 2 in
  let s = w.side.(from) in
  let idx = Queue.pop s.free in
  let addr = s.base + (idx * page) in
  let tree = Tyche.Monitor.tree s.m in
  let proxy_cap = Cap.Captree.next_id tree in
  let t0 = now () in
  let r =
    Fleet.delegate s.fleet ~caller:os ~cap:s.mem_cap ~peer:names.(1 - from)
      ~subrange:(Hw.Addr.Range.make ~base:addr ~len:page) ~rights:Cap.Rights.rw ()
  in
  let t1 = now () in
  pump w;
  let dt = now () - t0 in
  note_op w.run ~name:"fleet.delegate" dt;
  note_ckpt w dt;
  Samples.add w.run.special (float_of_int dt);
  if w.bt <> None then Samples.add w.call_ns (float_of_int (t1 - t0));
  match r with
  | Ok del_id ->
    if Cap.Captree.owner tree proxy_cap <> Some s.proxy then
      note_failure w.run "delegation did not create the expected proxy capability"
    else Queue.push { from; del_id; proxy_cap; addr } w.live
  | Error e -> note_failure w.run ("delegate: " ^ Fleet.error_to_string e)

let revoke w =
  let l = Queue.pop w.live in
  let s = w.side.(l.from) in
  let before = nodes w in
  let t0 = now () in
  let r = Fleet.revoke s.fleet ~caller:os ~cap:l.proxy_cap in
  let t1 = now () in
  pump w;
  let dt = now () - t0 in
  note_op w.run ~name:"fleet.revoke" dt;
  note_ckpt w dt;
  let removed = before - nodes w in
  note_teardown w.run ~removed dt;
  if w.bt <> None then begin
    Samples.add w.call_ns (float_of_int (t1 - t0));
    if Samples.count w.run.victims mod 16 = 0 then
      Samples.add w.run.hot
        (float_of_int
           (Array.fold_left
              (fun acc s -> max acc (List.length (Tyche.Monitor.caps_of s.m s.proxy)))
              0 w.side))
  end;
  Queue.push ((l.addr - s.base) / page) s.free;
  match r with
  | Ok () ->
    if removed <> 1 then
      note_failure w.run (Printf.sprintf "revoke removed %d captree nodes, expected 1" removed)
  | Error e -> note_failure w.run ("revoke: " ^ Fleet.error_to_string e)

(* Hold the population near its target: below it, delegate three times
   in four; above it, revoke three times in four. *)
let step w =
  let n = Queue.length w.live in
  let roll = Random.State.int w.rng 4 in
  if n = 0 || (n < target && roll > 0) || (n >= target && roll = 0) then delegate w else revoke w

let make_side ?bt ~net ~traced i =
  let host = host ?bt ~cores ~mem_size ~platform:(platform + i) () in
  let pool, keygen_s = keypool ~height:0 ~platform:(platform + i) in
  let m =
    Tyche.Monitor.boot ~signer_height:0 ~keypool:pool host.machine ~backend:host.used
      ~tpm:host.tpm ~rng:host.rng ~monitor_range:host.monitor_range
  in
  let dev = device ~traced () in
  (* fsync_every=1: the fleet journals a delegation before sending it,
     which is only sound once the share that created its proxy cap is
     durable too. *)
  Tyche.Monitor.enable_persistence m ~store:dev.store ();
  let fleet = Fleet.create ~store:dev.store ~monitor:m ~name:names.(i) ~net () in
  let proxy =
    match Fleet.connect fleet ~peer:names.(1 - i) ~key with
    | Ok d -> d
    | Error e -> fail "fleet connect: %s" (Fleet.error_to_string e)
  in
  let mem_cap = largest_memory m in
  let base =
    match memory_range (Tyche.Monitor.tree m) mem_cap with
    | Some r -> Hw.Addr.Range.base r
    | None -> fail "domain 0's largest capability is not memory"
  in
  let free = Queue.create () in
  List.iter (fun p -> Queue.push p free) (List.init pool_pages Fun.id);
  ({ host; m; dev; fleet; proxy; mem_cap; base; free }, keygen_s)

let create ~seed ~n_timed:_ ~traced =
  let bt = if traced then Some (Harness.btrace ()) else None in
  let net = Network.create () in
  let sides = Array.init 2 (fun i -> make_side ?bt ~net ~traced i) in
  let side = Array.map fst sides in
  let w =
    { seed; net; side; bt; rng = Random.State.make [| seed; 0xf1 |]; live = Queue.create ();
      run = new_run (); ticks = 0; pump_ns = Samples.create (); call_ns = Samples.create ();
      msgs0 = 0; bytes0 = 0; dup0 = 0; reord0 = 0;
      keygen_s = Array.fold_left (fun a (_, k) -> a +. k) 0. sides }
  in
  (* Warm-up: delegate until the population reaches its target. *)
  while Queue.length w.live < target && w.run.failed = 0 do
    delegate w
  done;
  (match w.run.first_error with Some e -> fail "warm-up call failed: %s" e | None -> ());
  w

let start_timed w =
  w.run <- new_run ();
  Array.iter (fun s -> reset_device s.dev) w.side;
  Option.iter reset_btrace w.bt;
  w.ticks <- 0;
  w.msgs0 <- Network.total_messages w.net;
  w.bytes0 <- Network.total_bytes w.net;
  w.dup0 <- Network.duplicated w.net;
  w.reord0 <- Network.reordered w.net

let dels_of fleet =
  List.map (fun d -> (d.Fleet.del_id, d.del_base, d.del_len)) (Fleet.delegations fleet)
  |> List.sort compare

let imports_from fleet origin =
  List.filter_map
    (fun i ->
      if i.Fleet.imp_origin = origin then Some (i.imp_del_id, i.imp_base, i.imp_len) else None)
    (Fleet.imports fleet)
  |> List.sort compare

(* Both endpoints idle; each side's delegations are exactly the peer's
   imports and the generator's live set; sampled pages are held by
   domain 0 and, while delegated, the peer's proxy. *)
let check w =
  if not (idle w) then fail "%s: endpoints not idle" name;
  Array.iteri
    (fun i s ->
      check_invariants name s.m;
      let model =
        Queue.fold (fun acc l -> if l.from = i then (l.del_id, l.addr, page) :: acc else acc) [] w.live
        |> List.sort compare
      in
      let dels = dels_of s.fleet in
      if dels <> model then fail "%s: %s's delegations disagree with the model" name names.(i);
      if imports_from w.side.(1 - i).fleet names.(i) <> dels then
        fail "%s: %s's imports disagree with %s's delegations" name names.(1 - i) names.(i))
    w.side;
  let delegated = Hashtbl.create 4096 in
  Queue.iter (fun l -> Hashtbl.replace delegated (l.from, l.addr) ()) w.live;
  let rng = Random.State.make [| w.seed; 0x5a5a |] in
  for _ = 1 to 64 do
    let i = Random.State.int rng 2 in
    let s = w.side.(i) in
    let addr = s.base + (Random.State.int rng pool_pages * page) in
    let expected =
      if Hashtbl.mem delegated (i, addr) then List.sort compare [ os; s.proxy ] else [ os ]
    in
    if holders_of (Tyche.Monitor.tree s.m) addr <> expected then
      fail "%s: holders of %s page %#x disagree with the model" name names.(i) addr
  done

type crashed = {
  contents : (string * string) list array;
  acked : int array;
  dels : (int * int * int) list array;
}

let crash w =
  let acked =
    Array.map (fun s -> Option.value ~default:0 (Tyche.Monitor.durable_seq s.m)) w.side
  in
  let dels = Array.map (fun s -> dels_of s.fleet) w.side in
  { acked; dels; contents = Array.map (fun s -> Harness.crash s.dev) w.side }

let wal_records_at_crash c = Array.fold_left (fun a x -> a + wal_records x) 0 c.contents

(* Power comes back on both machines: monitor recovery, fleet journal
   replay, reconnect, fsck. *)
let recovery c =
  let hosts = Array.init 2 (fun i -> host ~cores ~mem_size ~platform:(platform + i) ()) in
  let stores = Array.map restore c.contents in
  fun () ->
    let net = Network.create () in
    let replayed = ref 0 in
    let fleets =
      Array.init 2 (fun i ->
          let h = hosts.(i) in
          match
            Tyche.Monitor.recover h.machine ~store:stores.(i) ~backend:h.used ~tpm:h.tpm
              ~rng:h.rng ~monitor_range:h.monitor_range
          with
          | Error e -> fail "%s: recovery of %s failed: %s" name names.(i) e
          | Ok (m, report) ->
            replayed := !replayed + report.Tyche.Monitor.rr_replayed;
            (match Tyche.Monitor.persist_seq m with
            | Some s when s >= c.acked.(i) -> ()
            | _ -> fail "%s: %s lost acknowledged operations" name names.(i));
            (m, Fleet.create ~store:stores.(i) ~monitor:m ~name:names.(i) ~net ()))
    in
    Array.iteri
      (fun i (m, fleet) ->
        (match Fleet.connect fleet ~peer:names.(1 - i) ~key with
        | Ok _ -> ()
        | Error e -> fail "fleet reconnect: %s" (Fleet.error_to_string e));
        check_fsck name m;
        if dels_of fleet <> c.dels.(i) then
          fail "%s: %s recovered different delegations" name names.(i))
      fleets;
    !replayed

let layer w =
  let ops = w.run.ops in
  let per x = per_op ~ops (float_of_int x) in
  [ opt_metric ~n:(Samples.count w.call_ns) "fleet.call_us" "us"
      (Option.map us_of_ns (Samples.median w.call_ns));
    opt_metric ~n:(Samples.count w.pump_ns) "fleet.pump_us" "us"
      (Option.map us_of_ns (Samples.median w.pump_ns));
    metric ~n:ops "fleet.ticks_per_op" "count" (per w.ticks);
    metric "fleet.live_delegations" "count" (float_of_int (Queue.length w.live));
    metric ~n:ops "network.msgs_per_op" "count" (per (Network.total_messages w.net - w.msgs0));
    metric ~n:ops "network.bytes_per_op" "B" (per (Network.total_bytes w.net - w.bytes0));
    metric "network.duplicated" "count" (float_of_int (Network.duplicated w.net - w.dup0));
    metric "network.reordered" "count" (float_of_int (Network.reordered w.net - w.reord0)) ]
