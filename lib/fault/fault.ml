(* Deterministic fault injection.

   Modules that model fallible hardware or resource operations register
   a named injection [point] once at module-initialization time and call
   [hit] (raising) or [fires] (boolean) on every operation. With no plan
   armed the cost is a single physical-equality test, so production
   paths pay nothing measurable.

   A [plan] decides which hits trip. Plans are armed with [with_plan]
   (dynamically scoped, per-plan hit counters reset on arming) and are
   fully deterministic: probabilistic plans draw from a splitmix64
   stream seeded explicitly, never from the wall clock. [suspend]
   disables injection in a scope — rollback code uses it so undoing a
   faulted operation cannot itself fault. *)

type point = {
  name : string;
  mutable hits : int; (* hits observed while a plan was armed *)
  mutable trips : int; (* hits that injected a fault *)
}

exception Injected of { point : string; trip : int }

let () =
  Printexc.register_printer (function
    | Injected { point; trip } ->
      Some (Printf.sprintf "Fault.Injected(%s, trip %d)" point trip)
    | _ -> None)

type rule = [ `Nth of int | `Always | `Rate of float ]

type plan = {
  rules : (string * rule) list;
  default : rule option; (* applied to points without an explicit rule *)
  seed : int64;
  mutable rng : int64; (* splitmix64 state, reset to [seed] on arming *)
  counters : (string, int ref) Hashtbl.t; (* per-plan hit counts *)
}

(* --- registry ------------------------------------------------------- *)

let registry : (string, point) Hashtbl.t = Hashtbl.create 16

let register name =
  match Hashtbl.find_opt registry name with
  | Some p -> p
  | None ->
    let p = { name; hits = 0; trips = 0 } in
    Hashtbl.add registry name p;
    p

let name p = p.name
let hits p = p.hits
let trips p = p.trips

let points () =
  Hashtbl.fold (fun _ p acc -> p :: acc) registry []
  |> List.sort (fun a b -> String.compare a.name b.name)

let report () = List.map (fun p -> (p.name, p.hits, p.trips)) (points ())

let reset_counters () =
  Hashtbl.iter
    (fun _ p ->
      p.hits <- 0;
      p.trips <- 0)
    registry

(* --- plan construction --------------------------------------------- *)

let plan ?(seed = 1L) ?default rules =
  { rules; default; seed; rng = seed; counters = Hashtbl.create 8 }

let nth point n =
  if n <= 0 then invalid_arg "Fault.nth: n must be positive";
  plan [ (point, `Nth n) ]

let always point = plan [ (point, `Always) ]

let random ~seed ~rate =
  if not (rate >= 0. && rate <= 1.) then invalid_arg "Fault.random: rate out of range";
  plan ~seed:(Int64.of_int seed) ~default:(`Rate rate) []

(* --- arming and injection ------------------------------------------ *)

let current : plan option ref = ref None

(* Per OCaml domain: rollbacks on parallel shards suspend concurrently,
   and one shared unsynchronised counter could lose an update and stay
   suspended for the rest of the process. *)
let suspend_depth = Domain.DLS.new_key (fun () -> ref 0)
let depth () = !(Domain.DLS.get suspend_depth)

let enabled () = !current <> None && depth () = 0

let with_plan p f =
  let previous = !current in
  Hashtbl.reset p.counters;
  p.rng <- p.seed;
  current := Some p;
  Fun.protect ~finally:(fun () -> current := previous) f

let suspend f =
  let d = Domain.DLS.get suspend_depth in
  incr d;
  Fun.protect ~finally:(fun () -> decr d) f

let suspended () = depth () > 0

(* splitmix64: a tiny, deterministic stream for [Rate] rules. *)
let splitmix64 state =
  let z = Int64.add state 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform p =
  p.rng <- splitmix64 p.rng;
  (* 53 high bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical p.rng 11) /. 9007199254740992.

let fault_trips_c = Obs.Metrics.counter "fault.trips"

let fires point =
  match !current with
  | None -> false
  | Some _ when depth () > 0 -> false
  | Some p ->
    point.hits <- point.hits + 1;
    let counter =
      match Hashtbl.find_opt p.counters point.name with
      | Some c -> c
      | None ->
        let c = ref 0 in
        Hashtbl.add p.counters point.name c;
        c
    in
    incr counter;
    let rule =
      match List.assoc_opt point.name p.rules with
      | Some _ as r -> r
      | None -> p.default
    in
    let trip =
      match rule with
      | None -> false
      | Some `Always -> true
      | Some (`Nth n) -> !counter = n
      | Some (`Rate r) -> uniform p < r
    in
    if trip then begin
      point.trips <- point.trips + 1;
      Obs.instant ("fault." ^ point.name);
      Obs.Metrics.incr fault_trips_c
    end;
    trip

let hit point = if fires point then raise (Injected { point = point.name; trip = point.trips })

module Splitmix = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let next t =
    t.state <- splitmix64 t.state;
    Int64.to_int (Int64.shift_right_logical t.state 2)

  let below t n =
    if n <= 0 then invalid_arg "Fault.Splitmix.below";
    next t mod n

  let chance t p =
    t.state <- splitmix64 t.state;
    Int64.to_float (Int64.shift_right_logical t.state 11) /. 9007199254740992. < p

  let pick t = function
    | [] -> invalid_arg "Fault.Splitmix.pick"
    | l -> List.nth l (below t (List.length l))
end
