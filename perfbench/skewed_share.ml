(* skewed_share — why it exists: skew piles caps onto hot domains, so
   per-victim teardown exposes Monitor.trim_detach, whose cost is
   O(victims x caps of the domain), and the sharded front end's WAL has
   no checkpoints, so recovery replays the whole history. Tyche.Sharded
   with 2 shards of 1 core and 32 MiB each, driven through
   Sharded.dispatch with group commit (fsync_every=64). 4 provider
   sandboxes (2 per shard) each hold a 1,024-page share from domain 0;
   targets are 48 consumer sandboxes picked by Zipf(1.1) rank. Mix: 60%
   provider->consumer one-page shares, 15% consumer->consumer re-shares
   (deeper lineage), 15% leaf revokes by the holder, 10% Enumerate by a
   Zipf-chosen consumer. Every 2,000 calls domain 0 revokes one
   provider's region (a cascade over its whole subtree) and shares it a
   fresh one; every 5,000 calls the coldest consumer is destroyed (a
   two-phase commit across the shards) and recreated. No attests, no
   transitions. *)

open Harness

let name = "skewed_share"
let rate = 4000
let chunk = 2000
let recoveries = 3
let shards = 2
let mem_size = 32 * 1024 * 1024
let fsync_every = 64
let providers = 4
let region_pages = 1024
let consumers = 48
let zipf_s = 1.1
let provider_every = 2000
let consumer_every = 5000
let platform = 0x5e1
let os = Tyche.Domain.initial
let page = Hw.Addr.page_size

(* A capability as the generator's model of holdings sees it. Parent
   links and children let teardowns predict exactly how many captree
   nodes they remove. *)
type node = {
  id : int;
  owner : int; (* consumer index, or -1 for a provider's region *)
  addr : int; (* page base (global address), or -1 for a region *)
  parent : int; (* -1 for a region *)
  mutable kids : int list; (* may hold ids already removed *)
  mutable nkids : int;
}

(* Ints with O(1) add, remove and uniform pick. *)
module Bag = struct
  type t = { mutable items : int array; mutable n : int; pos : (int, int) Hashtbl.t }

  let create () = { items = Array.make 64 0; n = 0; pos = Hashtbl.create 64 }

  let add t x =
    if not (Hashtbl.mem t.pos x) then begin
      if t.n = Array.length t.items then begin
        let b = Array.make (2 * t.n) 0 in
        Array.blit t.items 0 b 0 t.n;
        t.items <- b
      end;
      t.items.(t.n) <- x;
      Hashtbl.replace t.pos x t.n;
      t.n <- t.n + 1
    end

  let remove t x =
    match Hashtbl.find_opt t.pos x with
    | None -> ()
    | Some i ->
      let last = t.items.(t.n - 1) in
      t.items.(i) <- last;
      Hashtbl.replace t.pos last i;
      Hashtbl.remove t.pos x;
      t.n <- t.n - 1

  let size t = t.n
  let pick t rng = t.items.(Random.State.int rng t.n)
  let to_list t = Array.to_list (Array.sub t.items 0 t.n)
end

type t = {
  seed : int;
  fed : Tyche.Sharded.t;
  hosts : host array;
  dev : device;
  bt : btrace option;
  rng : Random.State.t;
  zipf : float array; (* cumulative weights by rank *)
  nodes : (int, node) Hashtbl.t;
  owned : Bag.t array; (* per consumer index *)
  leaves : Bag.t; (* consumer-held caps without live children *)
  cons : int array; (* consumer index -> domain id *)
  prov : int array; (* provider -> domain id *)
  prov_cap : int array;
  region : Hw.Addr.Range.t array;
  os_mem : int array; (* per shard, domain 0's memory cap (global id) *)
  mutable calls : int;
  mutable next_provider : int;
  mutable next_consumer : int;
  mutable provider_cycles : int;
  mutable consumer_cycles : int;
  mutable run : run;
  keygen_s : float;
}

let run w = w.run
let cycles w = Array.fold_left (fun a h -> a + Hw.Machine.cycles h.machine) 0 w.hosts
let devices w = [ w.dev ]
let btrace w = w.bt
let keygen_s w = w.keygen_s

let nodes w =
  List.fold_left
    (fun a i -> a + Cap.Captree.node_count (Tyche.Monitor.tree (Tyche.Sharded.shard_monitor w.fed i)))
    0 (List.init shards Fun.id)

let zipf_table () =
  let c = Array.make consumers 0. in
  let acc = ref 0. in
  for k = 0 to consumers - 1 do
    acc := !acc +. (1. /. (float_of_int (k + 1) ** zipf_s));
    c.(k) <- !acc
  done;
  c

let zipf w =
  let u = Random.State.float w.rng w.zipf.(consumers - 1) in
  let rec go lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if w.zipf.(mid) > u then go lo mid else go (mid + 1) hi
  in
  go 0 (consumers - 1)

(* --- the model ------------------------------------------------------ *)

let add_node w ~id ~owner ~addr ~parent =
  Hashtbl.replace w.nodes id { id; owner; addr; parent; kids = []; nkids = 0 };
  (match Hashtbl.find_opt w.nodes parent with
  | Some p ->
    p.kids <- id :: p.kids;
    p.nkids <- p.nkids + 1;
    Bag.remove w.leaves parent
  | None -> ());
  if owner >= 0 then begin
    Bag.add w.owned.(owner) id;
    Bag.add w.leaves id
  end

(* Remove a subtree from the model; returns the nodes removed. *)
let remove_subtree w id =
  let rec go id =
    match Hashtbl.find_opt w.nodes id with
    | None -> 0
    | Some n ->
      Hashtbl.remove w.nodes id;
      if n.owner >= 0 then begin
        Bag.remove w.owned.(n.owner) id;
        Bag.remove w.leaves id
      end;
      List.fold_left (fun acc k -> acc + go k) 1 n.kids
  in
  let parent = match Hashtbl.find_opt w.nodes id with Some n -> n.parent | None -> -1 in
  let removed = go id in
  (match Hashtbl.find_opt w.nodes parent with
  | Some p ->
    p.nkids <- p.nkids - 1;
    if p.nkids = 0 && p.owner >= 0 then Bag.add w.leaves parent
  | None -> ());
  removed

(* --- calls ---------------------------------------------------------- *)

let bad w what r = note_failure w.run (Format.asprintf "%s: %a" what Tyche.Api.pp_response r)

let dispatch w ~caller call =
  let t0 = now () in
  let r = Tyche.Sharded.dispatch w.fed ~caller ~core:0 call in
  let t1 = now () in
  w.calls <- w.calls + 1;
  note_op w.run ~name:(Tyche.Api.op_name call) (t1 - t0);
  (r, t1 - t0)

(* The largest caps_of among the domains a teardown can touch. *)
let hot_caps w =
  Array.fold_left
    (fun acc d -> max acc (List.length (Tyche.Sharded.caps_of w.fed d)))
    0
    (Array.append w.cons w.prov)

let teardown w what ~caller ~expected call =
  let before = nodes w in
  let r, dt = dispatch w ~caller call in
  let removed = before - nodes w in
  note_teardown w.run ~removed dt;
  if w.bt <> None && Samples.count w.run.victims mod 16 = 0 then
    Samples.add w.run.hot (float_of_int (hot_caps w));
  match r with
  | Ok _ ->
    if removed <> expected then
      note_failure w.run
        (Printf.sprintf "%s removed %d captree nodes, the model expected %d" what removed expected)
  | r -> bad w what r

let page_range addr = Hw.Addr.Range.make ~base:addr ~len:page

let share_to_consumer w ~caller ~cap ~owner ~addr ~parent ?subrange what =
  match
    fst
      (dispatch w ~caller
         (Tyche.Api.Share
            { cap; to_ = w.cons.(owner); rights = Cap.Rights.rw;
              cleanup = Cap.Revocation.Zero; subrange }))
  with
  | Ok (Tyche.Api.R_cap c) -> add_node w ~id:c ~owner ~addr ~parent
  | r -> bad w what r

let provider_to_consumer w =
  let p = Random.State.int w.rng providers in
  let addr = Hw.Addr.Range.base w.region.(p) + (Random.State.int w.rng region_pages * page) in
  let owner = zipf w in
  share_to_consumer w ~caller:w.prov.(p) ~cap:w.prov_cap.(p) ~owner ~addr ~parent:w.prov_cap.(p)
    ~subrange:(page_range addr) "provider share"

let rec holder_zipf w tries =
  let c = zipf w in
  if Bag.size w.owned.(c) > 0 then Some c
  else if tries = 0 then None
  else holder_zipf w (tries - 1)

let rec other_zipf w a =
  let b = zipf w in
  if b = a then other_zipf w a else b

let consumer_to_consumer w =
  match holder_zipf w 4 with
  | None -> provider_to_consumer w
  | Some a ->
    let cap = Bag.pick w.owned.(a) w.rng in
    let b = other_zipf w a in
    let n = Hashtbl.find w.nodes cap in
    share_to_consumer w ~caller:w.cons.(a) ~cap ~owner:b ~addr:n.addr ~parent:cap "re-share"

let leaf_revoke w =
  if Bag.size w.leaves = 0 then provider_to_consumer w
  else begin
    let cap = Bag.pick w.leaves w.rng in
    let n = Hashtbl.find w.nodes cap in
    let expected = remove_subtree w cap in
    teardown w "leaf revoke" ~caller:w.cons.(n.owner) ~expected (Tyche.Api.Revoke { cap })
  end

let enumerate w =
  let c = zipf w in
  match fst (dispatch w ~caller:w.cons.(c) Tyche.Api.Enumerate) with
  | Ok (Tyche.Api.R_caps caps) ->
    if List.length caps <> Bag.size w.owned.(c) then
      note_failure w.run
        (Printf.sprintf "enumerate listed %d caps, the model holds %d" (List.length caps)
           (Bag.size w.owned.(c)))
  | r -> bad w "enumerate" r

let share_region w p =
  match
    fst
      (dispatch w ~caller:os
         (Tyche.Api.Share
            { cap = w.os_mem.(p / 2); to_ = w.prov.(p); rights = Cap.Rights.full;
              cleanup = Cap.Revocation.Keep; subrange = Some w.region.(p) }))
  with
  | Ok (Tyche.Api.R_cap c) ->
    w.prov_cap.(p) <- c;
    add_node w ~id:c ~owner:(-1) ~addr:(-1) ~parent:(-1)
  | r -> bad w "share region" r

let provider_cycle w =
  let p = w.provider_cycles mod providers in
  w.provider_cycles <- w.provider_cycles + 1;
  w.next_provider <- w.next_provider + provider_every;
  let cap = w.prov_cap.(p) in
  let expected = remove_subtree w cap in
  teardown w "provider revoke" ~caller:os ~expected (Tyche.Api.Revoke { cap });
  share_region w p

let consumer_name w i = Printf.sprintf "consumer-%02d.%d" i w.consumer_cycles

let create_consumer w i =
  match
    fst
      (dispatch w ~caller:os
         (Tyche.Api.Create_domain { name = consumer_name w i; kind = Tyche.Domain.Sandbox }))
  with
  | Ok (Tyche.Api.R_domain d) -> w.cons.(i) <- d
  | r -> bad w "create consumer" r

let consumer_cycle w =
  let i = consumers - 1 in
  w.consumer_cycles <- w.consumer_cycles + 1;
  w.next_consumer <- w.next_consumer + consumer_every;
  let expected = List.fold_left (fun acc c -> acc + remove_subtree w c) 0 (Bag.to_list w.owned.(i)) in
  teardown w "destroy consumer" ~caller:os ~expected (Tyche.Api.Destroy { domain = w.cons.(i) });
  create_consumer w i

let step w =
  if w.calls >= w.next_provider then provider_cycle w
  else if w.calls >= w.next_consumer then consumer_cycle w
  else
    let r = Random.State.int w.rng 100 in
    if r < 60 then provider_to_consumer w
    else if r < 75 then consumer_to_consumer w
    else if r < 90 then leaf_revoke w
    else enumerate w

(* --- set-up --------------------------------------------------------- *)

let create ~seed ~n_timed:_ ~traced =
  let bt = if traced then Some (Harness.btrace ()) else None in
  let hosts = Array.init shards (fun i -> host ?bt ~cores:1 ~mem_size ~platform:(platform + i) ()) in
  (* No attestations: each signer needs a single key. *)
  let pool, keygen_s = keypool ~height:0 ~platform in
  let fed =
    Tyche.Sharded.boot ~shards ~signer_height:0 ~keypool:pool
      ~rng:(Crypto.Rng.create ~seed:(Int64.of_int platform))
      ~mk:(fun ~shard ->
        let h = hosts.(shard) in
        (h.machine, h.used, h.tpm, h.rng, h.monitor_range))
      ()
  in
  let dev = device ~traced () in
  Tyche.Sharded.enable_persistence fed ~store:dev.store ~fsync_every ();
  let os_mem =
    Array.init shards (fun s ->
        Tyche.Sharded.gcap ~shard:s (largest_memory (Tyche.Sharded.shard_monitor fed s)))
  in
  let region =
    Array.init providers (fun p ->
        let s = p / 2 in
        let m = Tyche.Sharded.shard_monitor fed s in
        match memory_range (Tyche.Monitor.tree m) (largest_memory m) with
        | Some r ->
          Tyche.Sharded.grange ~shard:s
            (Hw.Addr.Range.make
               ~base:(Hw.Addr.Range.base r + ((1 + (p mod 2)) * region_pages * page))
               ~len:(region_pages * page))
        | None -> fail "domain 0's largest capability is not memory")
  in
  let w =
    { seed; fed; hosts; dev; bt; rng = Random.State.make [| seed; 0x5e |]; zipf = zipf_table ();
      nodes = Hashtbl.create 4096; owned = Array.init consumers (fun _ -> Bag.create ());
      leaves = Bag.create (); cons = Array.make consumers (-1); prov = Array.make providers (-1);
      prov_cap = Array.make providers (-1); region; os_mem; calls = 0;
      next_provider = provider_every; next_consumer = consumer_every; provider_cycles = 0;
      consumer_cycles = 0; run = new_run (); keygen_s }
  in
  for p = 0 to providers - 1 do
    match
      fst
        (dispatch w ~caller:os
           (Tyche.Api.Create_domain
              { name = Printf.sprintf "provider-%d" p; kind = Tyche.Domain.Sandbox }))
    with
    | Ok (Tyche.Api.R_domain d) ->
      w.prov.(p) <- d;
      share_region w p
    | r -> bad w "create provider" r
  done;
  for i = 0 to consumers - 1 do
    create_consumer w i
  done;
  (* Warm-up: until every provider has been revoked once. *)
  while w.provider_cycles < providers do
    step w
  done;
  (match w.run.first_error with Some e -> fail "warm-up call failed: %s" e | None -> ());
  w

let start_timed w =
  w.run <- new_run ();
  reset_device w.dev;
  Option.iter reset_btrace w.bt

(* Holdings the model predicts, against the federation's holders on a
   seeded sample of pages. *)
let check w =
  for s = 0 to shards - 1 do
    check_invariants name (Tyche.Sharded.shard_monitor w.fed s)
  done;
  let rng = Random.State.make [| w.seed; 0x5a5a |] in
  let live = Hashtbl.fold (fun _ n acc -> if n.owner >= 0 then n :: acc else acc) w.nodes [] in
  for _ = 1 to 64 do
    let p = Random.State.int rng providers in
    let addr = Hw.Addr.Range.base w.region.(p) + (Random.State.int rng region_pages * page) in
    let expected =
      List.sort_uniq compare
        (os :: w.prov.(p)
        :: List.filter_map (fun n -> if n.addr = addr then Some w.cons.(n.owner) else None) live)
    in
    let got = Tyche.Sharded.holders w.fed (Cap.Resource.Memory (page_range addr)) in
    if got <> expected then fail "%s: holders of page %#x disagree with the model" name addr
  done

type crashed = { contents : (string * string) list; acked : int }

let crash w =
  let acked = Option.value ~default:0 (Tyche.Sharded.durable_seq w.fed) in
  { acked; contents = Harness.crash w.dev }

let wal_records_at_crash c = wal_records c.contents

let recovery c =
  let hosts = Array.init shards (fun i -> host ~cores:1 ~mem_size ~platform:(platform + i) ()) in
  let store = restore c.contents in
  fun () ->
    let fed, report =
      Tyche.Sharded.recover ~shards ~rng:(Crypto.Rng.create ~seed:(Int64.of_int platform))
        ~mk:(fun ~shard ->
          let h = hosts.(shard) in
          (h.machine, h.used, h.tpm, h.rng, h.monitor_range))
        ~store ()
    in
    (match report.Tyche.Sharded.sr_stopped_early with
    | Some why -> fail "%s: replay stopped early: %s" name why
    | None -> ());
    for s = 0 to shards - 1 do
      check_fsck name (Tyche.Sharded.shard_monitor fed s)
    done;
    (match Tyche.Sharded.persist_seq fed with
    | Some s when s >= c.acked -> ()
    | _ -> fail "%s: recovery lost acknowledged operations (acked %d)" name c.acked);
    report.Tyche.Sharded.sr_replayed

let layer w =
  let med op = Hashtbl.find_opt w.run.per_op op |> Fun.flip Option.bind Samples.median in
  [ opt_metric ~n:w.consumer_cycles "sharded.broadcast_us" "us"
      (Option.map us_of_ns (med "create_domain"));
    opt_metric ~n:w.consumer_cycles "sharded.destroy_2pc_us" "us"
      (Option.map us_of_ns (med "destroy")) ]
