(* The multi-tenant benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 [--rev R]

   Each workload is a closed loop: one client on one thread sends its
   next call only after the previous one returns, as a VMCALL trap
   does, with no think time. The seed feeds only the generator; the
   timed phase issues a fixed number of calls (S times the workload's
   rate), so the exact counts (simulated cycles, store bytes, fsyncs)
   repeat for a fixed seed. Claims made against seed 1 must also hold
   on the holdout seed 7.

   --trace 0 measures the end-to-end metrics on the monitor as shipped
   (Obs enabled, no wrappers). --trace 1 runs the workload with the
   backend and store records wrapped and every call timed, and prints
   the per-layer split, then runs it again untraced with Obs switched
   off and on in alternating chunks to price Obs and the wrappers.

   Every run checks its outputs (attestations, a sampled holdings
   model, invariants, fsck after recovery, fleet agreement) and exits
   1 if any check fails. The last line is RESULT followed by a JSON
   object. *)

open Harness

module type WORKLOAD = sig
  type t
  type crashed

  val name : string
  val rate : int
  val chunk : int
  val recoveries : int
  val create : seed:int -> n_timed:int -> traced:bool -> t
  val step : t -> unit
  val start_timed : t -> unit
  val run : t -> run
  val cycles : t -> int
  val devices : t -> device list
  val btrace : t -> btrace option
  val keygen_s : t -> float
  val nodes : t -> int
  val check : t -> unit
  val layer : t -> metric list
  val crash : t -> crashed
  val wal_records_at_crash : crashed -> int
  val recovery : crashed -> unit -> int
end

let workloads : (module WORKLOAD) list =
  [ (module Tenant_churn); (module Skewed_share); (module Fleet_delegate) ]

let setups = 3
let secs ns = float_of_int ns /. 1e9
let heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1048576.

let median_of xs =
  let s = Samples.create () in
  List.iter (Samples.add s) xs;
  Option.get (Samples.median s)

let timed_loop (type w) (module W : WORKLOAD with type t = w) (w : w) n =
  let t0 = now () in
  while (W.run w).ops < n do
    W.step w
  done;
  now () - t0

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  first_error : string option;
}

(* Each timed phase runs as equal rounds, and a timing metric is the
   median of its per-round values over every round of every phase, so a
   burst of load elsewhere on the host spoils a round, not the metric.
   The host's speed still drifts by a third or more between runs on a
   shared 2-thread VM, which is why BENCHMARK.json gates only set-up
   time and the exact counts: compare these timings in paired runs. *)
let rounds = 4

type mark = { time : int; ops : int; lat : int; td : int; caps : int; special : int }

let mark (run : run) =
  { time = now (); ops = run.ops; lat = Samples.count run.lat;
    td = Samples.count run.teardown; caps = run.teardown_caps;
    special = Samples.count run.special }

let timed_rounds (type w) (module W : WORKLOAD with type t = w) (w : w) n =
  let marks = ref [ mark (W.run w) ] in
  for r = 1 to rounds do
    while (W.run w).ops < n * r / rounds do
      W.step w
    done;
    marks := mark (W.run w) :: !marks
  done;
  List.rev !marks

let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | _ -> []

let timing_names =
  [ "ops_per_s"; "op_p50_us"; "op_p99_us"; "teardown_p50_us"; "teardown_us_per_cap";
    "attest_p50_us"; "delegate_p50_us" ]

(* Per-round values of the timing metrics, as (name, value) pairs. *)
let round_values (run : run) marks ~special_name =
  let slice s lo hi = { Samples.a = Array.sub s.Samples.a lo (hi - lo); n = hi - lo } in
  let q s lo hi p = Option.map us_of_ns (Samples.quantile (slice s lo hi) p) in
  List.concat_map
    (fun (a, b) ->
      List.filter_map
        (fun (name, v) -> Option.map (fun v -> (name, v)) v)
        [ ("ops_per_s", Some (float_of_int (b.ops - a.ops) /. secs (b.time - a.time)));
          ("op_p50_us", q run.lat a.lat b.lat 0.5);
          ("op_p99_us", q run.lat a.lat b.lat 0.99);
          ("teardown_p50_us", q run.teardown a.td b.td 0.5);
          ( "teardown_us_per_cap",
            if b.caps = a.caps then None
            else
              Some
                (us_of_ns
                   (Samples.sum (slice run.teardown a.td b.td) /. float_of_int (b.caps - a.caps))) );
          (special_name, q run.special a.special b.special 0.5) ])
    (pairs marks)

let timing_metrics (pooled : run) values =
  let n = function
    | "ops_per_s" | "op_p50_us" | "op_p99_us" -> pooled.ops
    | "teardown_p50_us" | "teardown_us_per_cap" -> Samples.count pooled.teardown
    | _ -> Samples.count pooled.special
  in
  List.map
    (fun name ->
      let unit_ = if name = "ops_per_s" then "1/s" else "us" in
      match List.filter_map (fun (k, v) -> if k = name then Some v else None) values with
      | [] -> na name unit_
      | vs -> metric ~n:(n name) name unit_ (median_of vs))
    timing_names

let special_name = function
  | "tenant_churn" -> "attest_p50_us"
  | "fleet_delegate" -> "delegate_p50_us"
  | _ -> ""

(* --- end-to-end run ------------------------------------------------- *)

(* Every set-up is followed by its own timed phase over the same calls,
   so the rounds spread across the whole run. The first deployment
   alone gives the heap peak and the crashed store that recovery
   rebuilds. *)
let end_to_end (module W : WORKLOAD) ~seed ~n_timed ~t_proc =
  let pooled = new_run () in
  let values = ref [] in
  let cycles = ref 0 and bytes = ref 0 and fsyncs = ref 0 in
  let heap = ref 0. and crashed = ref None in
  let deploy i =
    if i > 0 then Gc.full_major ();
    let t0 = if i = 0 then t_proc else now () in
    let w = W.create ~seed ~n_timed ~traced:false in
    let setup = now () - t0 in
    W.start_timed w;
    let c0 = W.cycles w in
    let marks = timed_rounds (module W) w n_timed in
    values := round_values (W.run w) marks ~special_name:(special_name W.name) @ !values;
    cycles := !cycles + (W.cycles w - c0);
    if i = 0 then heap := heap_mb ();
    let ds = W.devices w in
    bytes := !bytes + total_bytes ds;
    fsyncs := !fsyncs + total_fsyncs ds;
    merge_run ~into:pooled (W.run w);
    W.check w;
    if i = 0 then crashed := Some (W.crash w);
    secs setup
  in
  let setup = List.init setups deploy in
  let crashed = Option.get !crashed in
  let recover =
    List.init W.recoveries (fun _ ->
        Gc.full_major ();
        let go = W.recovery crashed in
        let t0 = now () in
        ignore (go () : int);
        float_of_int (now () - t0) /. 1e6)
  in
  let ops = pooled.ops in
  let per x = per_op ~ops (float_of_int x) in
  let metrics =
    metric ~n:setups "setup_s" "s" (median_of setup)
    :: timing_metrics pooled !values
    @ [ metric ~n:W.recoveries "recover_ms" "ms" (median_of recover);
        metric ~n:ops "sim_cycles_per_op" "cycles" (per !cycles);
        metric ~n:ops "store_bytes_per_op" "B" (per !bytes);
        metric ~n:ops "fsyncs_per_kop" "count" (1000. *. per !fsyncs);
        metric "heap_peak_mb" "MB" !heap;
        metric ~n:ops "fail_ratio" "ratio" (per pooled.failed) ]
  in
  { metrics; attempted = ops; failed = pooled.failed; first_error = pooled.first_error }

(* --- traced run ----------------------------------------------------- *)

let blob_metrics ds ~ops =
  List.concat_map
    (fun name ->
      let bytes = ref 0 and fsyncs = ref 0 in
      List.iter
        (fun d ->
          let b = blob_of d name in
          bytes := !bytes + b.bytes;
          fsyncs := !fsyncs + b.fsyncs)
        ds;
      [ metric ~n:ops (Printf.sprintf "persist.%s.bytes_per_op" name) "B"
          (per_op ~ops (float_of_int !bytes));
        metric ~n:ops (Printf.sprintf "persist.%s.fsyncs_per_kop" name) "count"
          (1000. *. per_op ~ops (float_of_int !fsyncs)) ])
    [ Persist.Store.wal_blob; Persist.Store.snap_blob; Persist.Store.seg_blob; fleet_blob ]

let traced (module W : WORKLOAD) ~seed ~n_timed =
  let first () =
    let w = W.create ~seed ~n_timed ~traced:true in
    W.start_timed w;
    let c0 = W.cycles w in
    let wall = timed_loop (module W) w n_timed in
    let run = W.run w in
    let cycles = W.cycles w - c0 in
    let ops = run.ops in
    let bt = Option.get (W.btrace w) in
    let ds = W.devices w in
    let store_ns = List.fold_left (fun a d -> a + d.busy_ns) 0 ds in
    let wal = List.map (fun d -> blob_of d Persist.Store.wal_blob) ds in
    let wal_appends = List.fold_left (fun a b -> a + b.appends) 0 wal
    and wal_fsyncs = List.fold_left (fun a b -> a + b.fsyncs) 0 wal in
    let f = float_of_int and per x = per_op ~ops (float_of_int x) in
    let mean ns n = if n = 0 then None else Some (f ns /. f n) in
    let api =
      Hashtbl.fold (fun name s acc -> (name, s) :: acc) run.per_op []
      |> List.sort compare
      |> List.map (fun (name, s) ->
             let name = if String.contains name '.' then name else "api." ^ name in
             opt_metric ~n:(Samples.count s) (name ^ ".p50_us") "us"
               (Option.map us_of_ns (Samples.median s)))
    in
    let layer =
      api
      @ [ metric ~n:ops "monitor.self_us_per_op" "us"
            (us_of_ns (per_op ~ops (Samples.sum run.lat -. f (backend_ns bt) -. f store_ns)));
          metric ~n:ops "monitor.effects_per_op" "count" (per (bt.attach_n + bt.detach_n));
          metric ~n:ops "monitor.rollbacks" "count" (f bt.rollbacks);
          metric "cap.nodes" "count" (f (W.nodes w));
          metric ~n:(Samples.count run.victims) "cap.victims_per_teardown" "count"
            (ratio (Samples.sum run.victims) (f (Samples.count run.victims)));
          opt_metric ~n:(Samples.count run.hot) "cap.hot_domain_caps" "count"
            (Samples.median run.hot);
          opt_metric ~n:bt.attach_n "backend_x86.attach_us" "us"
            (Option.map us_of_ns (mean bt.attach_ns bt.attach_n));
          opt_metric ~n:bt.detach_n "backend_x86.detach_us" "us"
            (Option.map us_of_ns (mean bt.detach_ns bt.detach_n));
          metric ~n:ops "backend_x86.detach_calls_per_op" "count" (per bt.detach_n);
          opt_metric ~n:bt.commit_n "backend_x86.commit_us" "us"
            (Option.map us_of_ns (mean bt.commit_ns bt.commit_n));
          opt_metric ~n:bt.trans_n "backend_x86.transition_ns" "ns"
            (mean bt.trans_ns bt.trans_n);
          metric "backend_x86.busy_share" "ratio" (ratio (f (backend_ns bt)) (f wall));
          metric ~n:ops "hw.cycles_in_backend_per_op" "cycles" (per bt.cycles_in);
          metric ~n:ops "hw.cycles_outside_backend_per_op" "cycles" (per (cycles - bt.cycles_in));
          opt_metric ~n:bt.trans_n "hw.cycles_per_transition" "cycles"
            (mean bt.trans_cycles bt.trans_n) ]
      @ blob_metrics ds ~ops
      @ [ metric ~n:wal_fsyncs "persist.records_per_fsync" "count"
            (ratio (f wal_appends) (f wal_fsyncs));
          metric "persist.ckpt_count" "count" (f (Samples.count run.ckpt));
          opt_metric ~n:(Samples.count run.ckpt) "persist.ckpt_stall_us" "us"
            (Option.map us_of_ns (Samples.median run.ckpt));
          metric "persist.busy_share" "ratio" (ratio (f store_ns) (f wall));
          metric "crypto.keygen_s" "s" (W.keygen_s w) ]
      @ W.layer w
    in
    W.check w;
    (run, wall, layer, W.crash w)
  in
  let run, wall, layer, crashed = first () in
  Gc.full_major ();
  let replayed = W.recovery crashed () in
  Gc.full_major ();
  (* The same calls untraced, Obs switched off and on in alternating
     chunks, back to back. *)
  let w = W.create ~seed ~n_timed ~traced:false in
  W.start_timed w;
  let on_ns = ref 0 and off_ns = ref 0 and on_ops = ref 0 and off_ops = ref 0 in
  let events = ref 0 in
  let k = ref 0 in
  while (W.run w).ops < n_timed do
    let enabled = !k mod 2 = 0 in
    Obs.set_enabled enabled;
    let ops0 = (W.run w).ops and ev0 = Obs.written () in
    let dt = timed_loop (module W) w (min n_timed (ops0 + W.chunk)) in
    let d_ops = (W.run w).ops - ops0 in
    if enabled then begin
      on_ns := !on_ns + dt;
      on_ops := !on_ops + d_ops;
      events := !events + (Obs.written () - ev0)
    end
    else begin
      off_ns := !off_ns + dt;
      off_ops := !off_ops + d_ops
    end;
    incr k
  done;
  Obs.set_enabled true;
  let rate ops ns = float_of_int ops /. secs ns in
  let shipped = rate !on_ops !on_ns in
  let metrics =
    layer
    @ (if W.name = "skewed_share" then
         [ metric "sharded.replayed" "count" (float_of_int replayed) ]
       else [])
    @ [ metric "persist.wal_records_at_crash" "count"
          (float_of_int (W.wal_records_at_crash crashed));
        metric ~n:(!on_ops + !off_ops) "obs.overhead_ratio" "ratio"
          (rate !off_ops !off_ns /. shipped);
        metric ~n:!on_ops "obs.events_per_op" "count"
          (per_op ~ops:!on_ops (float_of_int !events));
        metric ~n:run.ops "trace.overhead_ratio" "ratio" (shipped /. rate run.ops wall) ]
  in
  let untraced = W.run w in
  { metrics;
    attempted = run.ops + untraced.ops;
    failed = run.failed + untraced.failed;
    first_error = (if run.first_error = None then untraced.first_error else run.first_error) }

(* --- output --------------------------------------------------------- *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let print_metric ~seed ~nproc ~rev m =
  Printf.printf "metric %-36s %20s %-6s n=%-7d seed=%d nproc=%d rev=%s\n" m.name
    (match m.value with Some v -> Printf.sprintf "%.6g" v | None -> "n/a")
    m.unit_ m.n seed nproc rev

let result_json ~workload ~correct o =
  let ms =
    List.filter_map
      (fun m ->
        Option.map
          (fun v ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s, \"n\": %d}" (json_string m.name)
              (json_float v) (json_string m.unit_) m.n)
          m.value)
      o.metrics
  in
  Printf.sprintf
    "{\"workload\": %s, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (json_string workload) correct o.attempted o.failed (String.concat ", " ms)

let () =
  let t_proc = now () in
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rev = ref "unknown" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME tenant_churn | skewed_share | fleet_delegate");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1; holdout seed 7)");
      ("--seconds", Arg.Set_int seconds, "S size of the timed phase (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--rev", Arg.Set_string rev, "REV source revision recorded beside every metric") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let m =
    match List.find_opt (fun (module W : WORKLOAD) -> W.name = !workload) workloads with
    | Some m -> m
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let (module W : WORKLOAD) = m in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let n_timed = !seconds * W.rate in
  let nproc = Domain.recommended_domain_count () in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%d trace=%d n_timed=%d nproc=%d rev=%s holdout_seed=7\n%!"
    W.name !seed !seconds !trace n_timed nproc !rev;
  match
    if !trace = 0 then end_to_end m ~seed:!seed ~n_timed ~t_proc
    else traced m ~seed:!seed ~n_timed
  with
  | exception Check_failed msg ->
    Printf.printf "CHECK FAILED: %s\n%!" msg;
    exit 1
  | o ->
    List.iter (print_metric ~seed:!seed ~nproc ~rev:!rev) o.metrics;
    let correct = o.failed = 0 in
    (match o.first_error with
    | Some e -> Printf.printf "FAILED CALLS: %d, first: %s\n" o.failed e
    | None -> ());
    Printf.printf "RESULT %s\n%!" (result_json ~workload:W.name ~correct o);
    if not correct then exit 1
