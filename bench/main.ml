(* The benchmark harness: regenerates, for every figure and claim of
   "Creating Trust by Abolishing Hierarchies" (HotOS '23), the series
   DESIGN.md's experiment index maps to it (E1-E12 plus the a1-a4
   ablations).

   Two kinds of numbers appear:
   - "sim cycles": the calibrated hardware cost model's account of what
     the operation would cost on real silicon — this is what reproduces
     the *shape* of the paper's claims (who wins, by what factor);
   - "wall ns/op": Bechamel-measured wall-clock of the monitor's actual
     bookkeeping logic in this OCaml implementation.

   Run with: dune exec bench/main.exe *)

let page = Hw.Addr.page_size
let range ~base ~len = Hw.Addr.Range.make ~base ~len

let header fmt =
  Printf.printf "\n================================================================\n";
  Printf.printf fmt;
  Printf.printf "\n================================================================\n"

let row3 a b c = Printf.printf "  %-36s %14s  %s\n" a b c
let ok = function Ok v -> v | Error e -> failwith (Tyche.Monitor.error_to_string e)
let ok_str = function Ok v -> v | Error e -> failwith e

(* --- world building ------------------------------------------------- *)

let firmware = "oem-firmware-2.1"
let loader_blob = "grub-ish-loader-1.0"
let monitor_image = "tyche-monitor-release-0.1"

type world = {
  machine : Hw.Machine.t;
  tpm : Rot.Tpm.t;
  boot_report : Rot.Boot.report;
  backend : Tyche.Backend_intf.t;
  monitor : Tyche.Monitor.t;
}

let boot ?(arch = Hw.Cpu.X86_64) ?(cores = 4) ?(mem_size = 32 * 1024 * 1024)
    ?(devices = []) ?(seed = 99L) ?tlb_strategy ?(signer_height = 6) ?keypool () =
  let machine = Hw.Machine.create ~arch ~cores ~mem_size () in
  List.iter (Hw.Machine.attach_device machine) devices;
  let rng = Crypto.Rng.create ~seed in
  (* The TPM's default 64 keys: no experiment signs more than E1's 23
     quotes with one world's TPM, and key generation dominates boot. *)
  let tpm = Rot.Tpm.create rng in
  let boot_report =
    Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image
  in
  let backend =
    match arch with
    | Hw.Cpu.X86_64 -> Backend_x86.create machine ?tlb_strategy ()
    | Hw.Cpu.Riscv64 ->
      Backend_riscv.create machine ~monitor_range:boot_report.Rot.Boot.monitor_range ()
  in
  let monitor =
    Tyche.Monitor.boot ~signer_height ?keypool machine ~backend ~tpm ~rng
      ~monitor_range:boot_report.Rot.Boot.monitor_range
  in
  { machine; tpm; boot_report; backend; monitor }

let os = Tyche.Domain.initial

let os_memory_cap w =
  let tree = Tyche.Monitor.tree w.monitor in
  let size cap =
    match Cap.Captree.resource tree cap with
    | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.len r
    | _ -> 0
  in
  match Tyche.Monitor.caps_of w.monitor os with
  | [] -> failwith "domain 0 holds no caps"
  | caps ->
    List.fold_left (fun best c -> if size c > size best then c else best) (List.hd caps) caps

let os_core_cap w core =
  let tree = Tyche.Monitor.tree w.monitor in
  List.find
    (fun cap -> Cap.Captree.resource tree cap = Some (Cap.Resource.Cpu_core core))
    (Tyche.Monitor.caps_of w.monitor os)

(* Sealed domain with [n_pages] at [base], allowed on core 0. *)
let make_domain ?(flush = false) ?(kind = Tyche.Domain.Enclave) w ~name ~base ~n_pages =
  let m = w.monitor in
  let d = ok (Tyche.Monitor.create_domain m ~caller:os ~name ~kind) in
  let sub = range ~base ~len:(n_pages * page) in
  let piece = ok (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w) ~subrange:sub) in
  let _ =
    ok
      (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:d ~rights:Cap.Rights.full
         ~cleanup:Cap.Revocation.Zero)
  in
  let _ =
    ok
      (Tyche.Monitor.share m ~caller:os ~cap:(os_core_cap w 0) ~to_:d
         ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ())
  in
  ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:d base);
  ok (Tyche.Monitor.set_flush_policy m ~caller:os ~domain:d flush);
  ok (Tyche.Monitor.seal m ~caller:os ~domain:d);
  d

(* --- bechamel ------------------------------------------------------- *)

(* No per-sample GC stabilization: it runs [Gc.compact] before every
   sample, and under OCaml 5.1 that many compactions leave the memory
   later experiments free resident (RSS 1.4 GB after E6 against a 68 MB
   live heap); the full suite then grew past 7.8 GB and was killed on an
   8 GB machine. Without it the suite peaks near 3 GB. *)
let run_bechamel ~name tests =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (test_name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
      in
      row3 test_name (Printf.sprintf "%.0f ns/op" est) "wall clock")
    (List.sort compare rows)

let timed_loop ~n f =
  (* Warm up (fill caches, trigger any lazy work) before timing. *)
  for _ = 1 to max 1 (n / 10) do
    f ()
  done;
  let start = Unix.gettimeofday () in
  for _ = 1 to n do
    f ()
  done;
  (Unix.gettimeofday () -. start) /. float_of_int n *. 1e9

(* --- E4: transition-cost hierarchy (claim C7) ----------------------- *)

(* Claim C7 under churn: domain 0 runs 600 tenant lifecycles (create,
   call, return, destroy), more than its 512-slot EPTP list holds, then
   calls one more domain once. The simulated cost of the next call+return
   pair into that domain: two VMFUNCs, because each destroy freed its
   tenant's slot. bench-smoke holds it to exactly that. *)
let e4_churn_pair () =
  let w = boot () in
  let m = w.monitor in
  let lifecycles = 600 in
  let tenant i =
    make_domain w ~name:(Printf.sprintf "t%d" i) ~base:(0x400000 + (i * page)) ~n_pages:1
  in
  let call_ret d =
    ignore (ok (Tyche.Monitor.call m ~core:0 ~target:d));
    ignore (ok (Tyche.Monitor.ret m ~core:0))
  in
  for i = 1 to lifecycles do
    let d = tenant i in
    call_ret d;
    ok (Tyche.Monitor.destroy_domain m ~caller:os ~domain:d)
  done;
  let d = tenant (lifecycles + 1) in
  call_ret d;
  Hw.Machine.reset_cycles w.machine;
  call_ret d;
  Hw.Machine.cycles w.machine

let e4 () =
  header "E4 (claim C7): domain-transition cost hierarchy";
  Printf.printf "  paper: VMFUNC transitions ~100 cycles; exits ~10x; processes/SGX far more\n\n";
  (* Simulated cycles, measured on live systems. *)
  let w = boot () in
  let m = w.monitor in
  let fast_d = make_domain w ~name:"fast" ~base:0x100000 ~n_pages:1 in
  let flush_d = make_domain ~flush:true w ~name:"flush" ~base:0x200000 ~n_pages:1 in
  (* Warm the VMFUNC registration. *)
  let _ = ok (Tyche.Monitor.call m ~core:0 ~target:fast_d) in
  let _ = ok (Tyche.Monitor.ret m ~core:0) in
  let cost f =
    Hw.Machine.reset_cycles w.machine;
    f ();
    Hw.Machine.cycles w.machine
  in
  let vmfunc_cost =
    cost (fun () -> ignore (ok (Tyche.Monitor.call m ~core:0 ~target:fast_d)))
  in
  let _ = ok (Tyche.Monitor.ret m ~core:0) in
  (* Plain trap path: first call to a fresh pair (no flush policy). *)
  let fresh_d = make_domain w ~name:"fresh" ~base:0x300000 ~n_pages:1 in
  let vmcall_plain =
    cost (fun () -> ignore (ok (Tyche.Monitor.call m ~core:0 ~target:fresh_d)))
  in
  let _ = ok (Tyche.Monitor.ret m ~core:0) in
  let vmcall_cost =
    cost (fun () ->
        let _ = ok (Tyche.Monitor.call m ~core:0 ~target:flush_d) in
        ())
  in
  let _ = ok (Tyche.Monitor.ret m ~core:0) in
  (* RISC-V ecall path. *)
  let wr = boot ~arch:Hw.Cpu.Riscv64 ~cores:2 () in
  let rd = make_domain wr ~name:"rv" ~base:0x100000 ~n_pages:1 in
  let ecall_cost =
    Hw.Machine.reset_cycles wr.machine;
    let _ = ok (Tyche.Monitor.call wr.monitor ~core:0 ~target:rd) in
    Hw.Machine.cycles wr.machine
  in
  (* Baselines. *)
  let c = Hw.Cycles.create () in
  let procs = Baseline.Process_isolation.create ~counter:c ~mem_per_proc:(16 * page) in
  let p1 = Baseline.Process_isolation.fork procs in
  let p2 = Baseline.Process_isolation.fork procs in
  Hw.Cycles.reset c;
  Baseline.Process_isolation.context_switch procs ~from_:p1 ~to_:p2;
  let proc_cost = Hw.Cycles.read c in
  let sgx = Baseline.Sgx_sim.create ~counter:c ~epc_pages:64 in
  let e = Result.get_ok (Baseline.Sgx_sim.create_enclave sgx ~pages:4 ()) in
  Hw.Cycles.reset c;
  ignore (Baseline.Sgx_sim.eenter sgx e);
  ignore (Baseline.Sgx_sim.eexit sgx e);
  let sgx_cost = Hw.Cycles.read c in
  row3 "mechanism" "sim cycles" "vs VMFUNC";
  let show name v =
    row3 name (string_of_int v) (Printf.sprintf "%.1fx" (float_of_int v /. float_of_int vmfunc_cost))
  in
  show "Tyche x86 VMFUNC fast path" vmfunc_cost;
  show "Tyche x86 VMCALL trap" vmcall_plain;
  show "Tyche x86 VMCALL + microarch flush" vmcall_cost;
  show "x86 call+ret, 600 lifecycles on" (e4_churn_pair ());
  show "Tyche RISC-V ecall + PMP reprogram" ecall_cost;
  show "process context switch" proc_cost;
  show "SGX EENTER+EEXIT" sgx_cost;
  Printf.printf "\n";
  (* Wall-clock of the monitor's transition logic. *)
  let wq = boot () in
  let fq = make_domain wq ~name:"f" ~base:0x100000 ~n_pages:1 in
  let _ = ok (Tyche.Monitor.call wq.monitor ~core:0 ~target:fq) in
  let _ = ok (Tyche.Monitor.ret wq.monitor ~core:0) in
  run_bechamel ~name:"e4"
    [ Bechamel.Test.make ~name:"call+ret (vmfunc path)"
        (Bechamel.Staged.stage (fun () ->
             let _ = ok (Tyche.Monitor.call wq.monitor ~core:0 ~target:fq) in
             ok (Tyche.Monitor.ret wq.monitor ~core:0))) ]

(* --- E5: capability-operation scaling (claim C2) --------------------- *)

let build_tree n =
  let t = Cap.Captree.create () in
  let root, _ =
    Result.get_ok
      (Cap.Captree.root t ~owner:0 (Cap.Resource.Memory (range ~base:0 ~len:(4 * n * page)))
         Cap.Rights.full)
  in
  for i = 1 to n do
    ignore
      (Result.get_ok
         (Cap.Captree.share t root ~to_:(1 + (i mod 7)) ~rights:Cap.Rights.rw
            ~cleanup:Cap.Revocation.Keep
            ~subrange:(range ~base:(i * page) ~len:page) ()))
  done;
  (t, root)

let e5 () =
  header "E5 (claim C2): capability operations scale with tree size";
  row3 "operation" "wall ns/op" "tree size";
  List.iter
    (fun n ->
      let t, root = build_tree n in
      let ns =
        timed_loop ~n:2000 (fun () ->
            let id, _ =
              Result.get_ok
                (Cap.Captree.share t root ~to_:9 ~rights:Cap.Rights.rw
                   ~cleanup:Cap.Revocation.Keep ~subrange:(range ~base:0 ~len:page) ())
            in
            ignore (Result.get_ok (Cap.Captree.revoke t id)))
      in
      row3 "share+revoke" (Printf.sprintf "%.0f" ns) (Printf.sprintf "%d caps" n))
    [ 10; 100; 1000; 10_000 ];
  Printf.printf "\n";
  row3 "cascading revoke" "wall ns (whole chain)" "chain depth";
  List.iter
    (fun depth ->
      let ns =
        timed_loop ~n:200 (fun () ->
            let t = Cap.Captree.create () in
            let root, _ =
              Result.get_ok
                (Cap.Captree.root t ~owner:0
                   (Cap.Resource.Memory (range ~base:0 ~len:(16 * page)))
                   Cap.Rights.full)
            in
            let leaf = ref root in
            for i = 1 to depth do
              let id, _ =
                Result.get_ok
                  (Cap.Captree.share t !leaf ~to_:(i mod 7) ~rights:Cap.Rights.full
                     ~cleanup:Cap.Revocation.Keep ())
              in
              leaf := id
            done;
            ignore (Result.get_ok (Cap.Captree.revoke_children t root)))
      in
      row3 "build+revoke chain" (Printf.sprintf "%.0f" ns) (Printf.sprintf "depth %d" depth))
    [ 4; 16; 64; 256 ]

(* --- E6 (claim C6): revocation-policy cost --------------------------- *)

let e6 () =
  header "E6 (claim C6): revocation clean-up policy cost";
  row3 "region size / policy" "sim cycles" "";
  List.iter
    (fun n_pages ->
      List.iter
        (fun policy ->
          let w = boot ~mem_size:(64 * 1024 * 1024) () in
          let m = w.monitor in
          let d = ok (Tyche.Monitor.create_domain m ~caller:os ~name:"v" ~kind:Tyche.Domain.Enclave) in
          let sub = range ~base:0x400000 ~len:(n_pages * page) in
          let piece = ok (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w) ~subrange:sub) in
          let granted =
            ok (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:d ~rights:Cap.Rights.full
                  ~cleanup:policy)
          in
          Hw.Machine.reset_cycles w.machine;
          ok (Tyche.Monitor.revoke m ~caller:os ~cap:granted);
          row3
            (Printf.sprintf "%4d KiB, %s" (n_pages * page / 1024) (Cap.Revocation.to_string policy))
            (string_of_int (Hw.Machine.cycles w.machine))
            "")
        [ Cap.Revocation.Keep; Cap.Revocation.Zero; Cap.Revocation.Flush_cache;
          Cap.Revocation.Zero_and_flush ])
    [ 1; 64; 1024 ]

(* --- E7 (claim C4): nesting ------------------------------------------ *)

let e7 () =
  header "E7 (claim C4): enclave nesting depth (Tyche vs SGX vs processes)";
  row3 "depth" "Tyche sim cycles (create)" "SGX-sim / process equivalent";
  let w = boot ~mem_size:(64 * 1024 * 1024) () in
  let m = w.monitor in
  let c = Hw.Cycles.create () in
  let sgx = Baseline.Sgx_sim.create ~counter:c ~epc_pages:4096 in
  let procs = Baseline.Process_isolation.create ~counter:c ~mem_per_proc:(4 * page) in
  (* Chain: OS grants to D1, D1 grants half of its pages to D2, ... *)
  let rec nest ~parent ~parent_cap ~base ~pages ~depth ~acc =
    if depth = 0 then List.rev acc
    else begin
      Hw.Machine.reset_cycles w.machine;
      let d =
        ok (Tyche.Monitor.create_domain m ~caller:parent ~name:(Printf.sprintf "n%d" depth)
              ~kind:Tyche.Domain.Enclave)
      in
      let sub = range ~base ~len:(pages * page) in
      let piece = ok (Tyche.Monitor.carve m ~caller:parent ~cap:parent_cap ~subrange:sub) in
      let granted =
        ok (Tyche.Monitor.grant m ~caller:parent ~cap:piece ~to_:d ~rights:Cap.Rights.full
              ~cleanup:Cap.Revocation.Zero)
      in
      let cycles = Hw.Machine.cycles w.machine in
      nest ~parent:d ~parent_cap:granted ~base:(base + page) ~pages:(pages - 1)
        ~depth:(depth - 1) ~acc:(cycles :: acc)
    end
  in
  let costs =
    nest ~parent:os ~parent_cap:(os_memory_cap w) ~base:0x400000 ~pages:10 ~depth:8 ~acc:[]
  in
  List.iteri
    (fun i cycles ->
      let depth = i + 1 in
      let sgx_result =
        if depth = 1 then begin
          Hw.Cycles.reset c;
          (match Baseline.Sgx_sim.create_enclave sgx ~pages:10 () with
          | Ok _ -> Printf.sprintf "SGX: %d cycles" (Hw.Cycles.read c)
          | Error e -> "SGX: " ^ Baseline.Sgx_sim.error_to_string e)
        end
        else begin
          let host = Result.get_ok (Baseline.Sgx_sim.create_enclave sgx ~pages:1 ()) in
          match Baseline.Sgx_sim.create_enclave sgx ~inside:host ~pages:1 () with
          | Error e -> "SGX: FAILS (" ^ Baseline.Sgx_sim.error_to_string e ^ ")"
          | Ok _ -> "SGX: unexpectedly nested!"
        end
      in
      Hw.Cycles.reset c;
      let _ = Baseline.Process_isolation.fork procs in
      let proc_cost = Hw.Cycles.read c in
      row3 (string_of_int depth)
        (string_of_int cycles)
        (Printf.sprintf "%s | process: %d cycles" sgx_result proc_cost))
    costs

(* --- E8 (claim C5): attestation throughput ---------------------------- *)

let e8 () =
  header "E8 (claim C5): attestation generation and verification";
  row3 "domain size" "generate (wall us/op)" "verify (wall us/op)";
  List.iter
    (fun regions ->
      let w = boot ~mem_size:(64 * 1024 * 1024) ~signer_height:10 () in
      let m = w.monitor in
      let d = ok (Tyche.Monitor.create_domain m ~caller:os ~name:"a" ~kind:Tyche.Domain.Enclave) in
      (* Discontiguous pages so each is a separate region report. *)
      for i = 0 to regions - 1 do
        ignore
          (ok
             (Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w) ~to_:d
                ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep
                ~subrange:(range ~base:(0x400000 + (i * 2 * page)) ~len:page) ()))
      done;
      let gen_ns =
        timed_loop ~n:100 (fun () ->
            ignore (ok (Tyche.Monitor.attest m ~caller:os ~domain:d ~nonce:"bench")))
      in
      let att = ok (Tyche.Monitor.attest m ~caller:os ~domain:d ~nonce:"bench") in
      let root = Tyche.Monitor.attestation_root m in
      let ver_ns =
        timed_loop ~n:100 (fun () -> ignore (Tyche.Attestation.verify ~monitor_root:root att))
      in
      row3
        (Printf.sprintf "%d regions" regions)
        (Printf.sprintf "%.1f" (gen_ns /. 1e3))
        (Printf.sprintf "%.1f" (ver_ns /. 1e3)))
    [ 1; 16; 64; 256 ]

(* --- E9 (claim C8): PMP scarcity vs EPT ------------------------------- *)

let e9 () =
  header "E9 (claim C8): PMP entry scarcity vs EPT (fragmented domain growth)";
  row3 "backend" "fragmented pages admitted" "note";
  let admit_fragmented monitor w_cap =
    let d =
      ok (Tyche.Monitor.create_domain monitor ~caller:os ~name:"frag" ~kind:Tyche.Domain.Sandbox)
    in
    let admitted = ref 0 in
    (try
       for i = 0 to 199 do
         match
           Tyche.Monitor.share monitor ~caller:os ~cap:w_cap ~to_:d ~rights:Cap.Rights.rw
             ~cleanup:Cap.Revocation.Keep
             ~subrange:(range ~base:(0x400000 + (i * 2 * page)) ~len:page) ()
         with
         | Ok _ -> incr admitted
         | Error _ -> raise Exit
       done
     with Exit -> ());
    !admitted
  in
  let wx = boot () in
  let nx = admit_fragmented wx.monitor (os_memory_cap wx) in
  row3 "x86 EPT" (string_of_int nx) "(stopped at the 200-page test cap)";
  let wr = boot ~arch:Hw.Cpu.Riscv64 ~cores:2 () in
  let nr = admit_fragmented wr.monitor (os_memory_cap wr) in
  row3 "RISC-V PMP (merge-adjacent)"
    (string_of_int nr)
    (Printf.sprintf "(budget: %d entries)" (Backend_riscv.usable_entries wr.machine));
  (* a3 ablation: allocation strategy. *)
  let machine = Hw.Machine.create ~arch:Hw.Cpu.Riscv64 ~cores:2 ~mem_size:(32 * 1024 * 1024) () in
  let rng = Crypto.Rng.create ~seed:7L in
  let tpm = Rot.Tpm.create rng in
  let report = Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image in
  let backend =
    Backend_riscv.create machine ~monitor_range:report.Rot.Boot.monitor_range
      ~alloc_strategy:Backend_riscv.First_fit ()
  in
  let mono =
    Tyche.Monitor.boot machine ~backend ~tpm ~rng ~monitor_range:report.Rot.Boot.monitor_range
  in
  let wf = { machine; tpm; boot_report = report; backend; monitor = mono } in
  (* Contiguous pages this time: merging would save entries; first-fit cannot. *)
  let d = ok (Tyche.Monitor.create_domain mono ~caller:os ~name:"c" ~kind:Tyche.Domain.Sandbox) in
  let admitted = ref 0 in
  (try
     for i = 0 to 99 do
       match
         Tyche.Monitor.share mono ~caller:os ~cap:(os_memory_cap wf) ~to_:d
           ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep
           ~subrange:(range ~base:(0x400000 + (i * page)) ~len:page) ()
       with
       | Ok _ -> incr admitted
       | Error _ -> raise Exit
     done
   with Exit -> ());
  Printf.printf "\n  ablation a3 (contiguous pages on PMP):\n";
  row3 "first-fit strategy" (string_of_int !admitted) "entries burn one per share";
  let wm = boot ~arch:Hw.Cpu.Riscv64 ~cores:2 () in
  let dm = ok (Tyche.Monitor.create_domain wm.monitor ~caller:os ~name:"c" ~kind:Tyche.Domain.Sandbox) in
  for i = 0 to 99 do
    ignore
      (ok
         (Tyche.Monitor.share wm.monitor ~caller:os ~cap:(os_memory_cap wm) ~to_:dm
            ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep
            ~subrange:(range ~base:(0x400000 + (i * page)) ~len:page) ()))
  done;
  row3 "merge-adjacent strategy" "100"
    (Printf.sprintf "collapsed into %d PMP segment(s)"
       (List.length (Backend_riscv.layout_of wm.backend dm)))

(* --- E10 (claim C3): TCB line counts ---------------------------------- *)

(* Non-blank lines of every OCaml and C source under [dir]: a kernel
   written in C is as trusted as the OCaml that calls it. *)
let loc_suffixes = [ ".ml"; ".mli"; ".c"; ".h" ]

let count_loc dir =
  let rec walk dir acc =
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then walk path acc
        else if List.exists (Filename.check_suffix path) loc_suffixes then begin
          let ic = open_in path in
          let lines = ref 0 in
          (try
             while true do
               let line = input_line ic in
               if String.trim line <> "" then incr lines
             done
           with End_of_file -> ());
          close_in ic;
          acc + !lines
        end
        else acc)
      acc (Sys.readdir dir)
  in
  if Sys.file_exists dir && Sys.is_directory dir then walk dir 0 else 0

(* The trusted core is what the monitor links: the transitive
   (libraries ...) closure of the monitor library and both backends, as
   the dune files under lib/ declare it, minus the two libraries that
   simulate the silicon and the TPM (DESIGN.md section 1). *)
let tcb_roots = [ "tyche"; "tyche.backend-x86"; "tyche.backend-riscv" ]
let tcb_simulated = [ "tyche.hw"; "tyche.rot" ]
let tcb_ceiling = 10_000

type sexp = Atom of string | List of sexp list

(* Just enough of the s-expression syntax for dune's stanzas: atoms,
   lists and line comments. *)
let read_sexps path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let n = String.length text in
  let rec items i acc =
    if i >= n then (List.rev acc, i)
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' -> items (i + 1) acc
      | ';' -> items (Option.value ~default:n (String.index_from_opt text i '\n')) acc
      | '(' ->
        let l, j = items (i + 1) [] in
        items (j + 1) (List l :: acc)
      | ')' -> (List.rev acc, i)
      | _ ->
        let j = ref i in
        while !j < n && not (String.contains " \t\n\r();" text.[!j]) do incr j done;
        items !j (Atom (String.sub text i (!j - i)) :: acc)
  in
  fst (items 0 [])

(* [(public name, directory, libraries)] of every library under [root]. *)
let dune_libraries root =
  let atoms = List.filter_map (function Atom a -> Some a | List _ -> None) in
  let library dir = function
    | List (Atom "library" :: fields) ->
      let field name =
        List.find_map (function List (Atom f :: v) when f = name -> Some (atoms v) | _ -> None) fields
      in
      Option.map
        (fun pub -> (String.concat "" pub, dir, Option.value ~default:[] (field "libraries")))
        (field "public_name")
    | _ -> None
  in
  Sys.readdir root |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let dir = Filename.concat root entry in
         let file = Filename.concat dir "dune" in
         if Sys.file_exists file then List.filter_map (library dir) (read_sexps file) else [])

let tcb_libraries libs =
  let rec close seen = function
    | [] -> seen
    | name :: rest when List.mem name seen -> close seen rest
    | name :: rest -> (
      match List.find_opt (fun (n, _, _) -> n = name) libs with
      | Some (_, _, deps) -> close (name :: seen) (deps @ rest)
      | None -> close seen rest (* outside lib/: fmt, logs, unix *))
  in
  List.iter
    (fun root ->
      if not (List.exists (fun (n, _, _) -> n = root) libs) then
        failwith ("e10: no dune file under lib/ declares " ^ root))
    tcb_roots;
  List.filter (fun name -> not (List.mem name tcb_simulated)) (close [] tcb_roots)

(* Prints the count per library and returns the trusted-core total. *)
let e10 () =
  header "E10 (claim C3): trusted computing base size (< 10K LOC monitor)";
  let libs = dune_libraries "lib" in
  let tcb = tcb_libraries libs in
  row3 "directory" "non-blank LOC" "in TCB?  library";
  let total =
    List.fold_left
      (fun acc (name, dir, _) ->
        let n = count_loc dir in
        let trusted = List.mem name tcb in
        row3 dir (string_of_int n)
          (Printf.sprintf "%-8s %s"
             (if trusted then "yes" else if List.mem name tcb_simulated then "no (sim)" else "no")
             name);
        if trusted then acc + n else acc)
      0 libs
  in
  row3 "TOTAL trusted core" (string_of_int total)
    (if total < tcb_ceiling then "< 10K: claim holds" else ">= 10K: claim FAILS");
  row3 "TOTAL lib/" (string_of_int (count_loc "lib")) "every library, trusted or not";
  Printf.printf "  (the link closure of %s, minus %s; the paper counts its Rust monitor)\n"
    (String.concat ", " tcb_roots) (String.concat ", " tcb_simulated);
  total

(* --- E11: driver request path ------------------------------------------ *)

let e11 () =
  header "E11: driver request path, trusted vs sandboxed";
  let nic = Hw.Device.create ~kind:Hw.Device.Nic ~bus:1 ~dev:0 ~fn:0 () in
  let w = boot ~devices:[ nic ] () in
  let heap = range ~base:0x400000 ~len:(8 * 1024 * 1024) in
  let k = ok_str (Kernel.boot w.monitor ~core:0 ~heap) in
  let drv_img =
    let b = Image.Builder.create ~name:"drv" in
    let b = Image.Builder.add_segment b ~name:".text" ~vaddr:0 ~data:"drv" ~perm:Hw.Perm.rx () in
    Result.get_ok (Image.Builder.finish (Image.Builder.set_entry b 0))
  in
  row3 "mode" "sim cycles / request" "rogue DMA outcome";
  let trusted = ok_str (Kernel.attach_driver k ~device:nic ()) in
  Hw.Machine.reset_cycles w.machine;
  let _ = ok_str (Kernel.Driver.submit trusted w.monitor ~core:0 ~data:"req") in
  let t_cycles = Hw.Machine.cycles w.machine in
  let t_rogue =
    match Kernel.Driver.rogue_dma trusted w.monitor ~target:0x8000 with
    | Ok () -> "LANDS (kernel corrupted)"
    | Error _ -> "blocked"
  in
  row3 "trusted (commodity)" (string_of_int t_cycles) t_rogue;
  ok_str (Kernel.detach_driver k trusted);
  let sandboxed = ok_str (Kernel.attach_driver k ~device:nic ~sandboxed_with:drv_img ()) in
  Hw.Machine.reset_cycles w.machine;
  let _ = ok_str (Kernel.Driver.submit sandboxed w.monitor ~core:0 ~data:"req") in
  let s_cycles = Hw.Machine.cycles w.machine in
  let s_rogue =
    match Kernel.Driver.rogue_dma sandboxed w.monitor ~target:0x8000 with
    | Ok () -> "LANDS (kernel corrupted)"
    | Error _ -> "blocked by IOMMU"
  in
  row3 "sandboxed (Tyche)" (string_of_int s_cycles) s_rogue

(* --- E12: attack matrix ------------------------------------------------ *)

let e12 () =
  header "E12: malicious privileged code, Tyche vs commodity monolithic";
  let w = boot () in
  let m = w.monitor in
  let victim = make_domain w ~name:"victim" ~base:0x100000 ~n_pages:2 in
  let mono = Baseline.Monolithic.create ~mem_size:(1024 * 1024) in
  let app = 1 in
  let arena = Baseline.Monolithic.app_alloc mono app ~bytes:(2 * page) in
  ignore (Baseline.Monolithic.app_store mono app (Hw.Addr.Range.base arena) 42);
  row3 "attack by privileged code" "Tyche" "monolithic commodity OS";
  let tyche_read =
    match Tyche.Monitor.load m ~core:0 0x100000 with
    | Error _ -> "blocked (EPT)"
    | Ok _ -> "LEAKED"
  in
  ignore (Baseline.Monolithic.kernel_load mono (Hw.Addr.Range.base arena));
  row3 "read app's private memory" tyche_read "succeeds, no trace";
  let tyche_share =
    let spy = ok (Tyche.Monitor.create_domain m ~caller:os ~name:"spy" ~kind:Tyche.Domain.Sandbox) in
    match
      Tyche.Monitor.share m ~caller:os ~cap:(List.hd (Tyche.Monitor.caps_of m victim))
        ~to_:spy ~rights:Cap.Rights.read_only ~cleanup:Cap.Revocation.Keep ()
    with
    | Error _ -> "denied (not owner)"
    | Ok _ -> "LEAKED"
  in
  Baseline.Monolithic.kernel_remap mono ~target:arena;
  row3 "remap victim memory to a spy" tyche_share "succeeds, no trace";
  let tyche_extend =
    match
      Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w) ~to_:victim
        ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep
        ~subrange:(range ~base:0x300000 ~len:page) ()
    with
    | Error _ -> "denied (sealed)"
    | Ok _ -> "INJECTED"
  in
  row3 "inject a trojan page" tyche_extend "kernel patches app at will";
  let att = ok (Tyche.Monitor.attest m ~caller:os ~domain:victim ~nonce:"x") in
  let forged = { att with Tyche.Attestation.nonce = "y" } in
  let tyche_forge =
    if Tyche.Attestation.verify ~monitor_root:(Tyche.Monitor.attestation_root m) forged
    then "ACCEPTED" else "rejected (signature)"
  in
  row3 "forge/replay an attestation" tyche_forge
    (Printf.sprintf "self-report: %S" (Baseline.Monolithic.self_report mono app))

(* --- a2 / a4 ablations -------------------------------------------------- *)

let ablations () =
  header "Ablations a2 (EPTP list overflow) and a4 (TLB flush strategy)";
  (* a2: more sibling domains than the OS's 512-entry EPTP list. With
     520 targets, the first 512 register VMFUNC fast paths; the rest
     fall back to the trap path while all 512 stay alive. *)
  let w = boot ~mem_size:(128 * 1024 * 1024) () in
  let m = w.monitor in
  let n = Hw.Ept.Eptp_list.max_entries + 8 in
  let domains =
    List.init n (fun i ->
        make_domain w ~name:(Printf.sprintf "d%d" i) ~base:(0x400000 + (i * page)) ~n_pages:1)
  in
  (* Pass 1 registers what fits; in pass 2 we count which *calls* (OS ->
     domain direction) take the fast path. *)
  List.iter
    (fun d ->
      let _ = ok (Tyche.Monitor.call m ~core:0 ~target:d) in
      ignore (ok (Tyche.Monitor.ret m ~core:0)))
    domains;
  let fast_calls = ref 0 in
  List.iter
    (fun d ->
      (match ok (Tyche.Monitor.call m ~core:0 ~target:d) with
      | Tyche.Backend_intf.Fast_switch -> incr fast_calls
      | Tyche.Backend_intf.Trap_roundtrip -> ());
      ignore (ok (Tyche.Monitor.ret m ~core:0)))
    domains;
  row3 "a2: 2nd-pass calls taking VMFUNC" (Printf.sprintf "%d/%d" !fast_calls n)
    (Printf.sprintf "EPTP list capacity %d" Hw.Ept.Eptp_list.max_entries);
  (* Destroying 8 of the 512 registered domains frees their slots: each
     overflow domain registers on its next call and takes VMFUNC on the
     one after. *)
  let freed = n - Hw.Ept.Eptp_list.max_entries in
  List.iteri
    (fun i d -> if i < freed then ok (Tyche.Monitor.destroy_domain m ~caller:os ~domain:d))
    domains;
  let overflow = List.filteri (fun i _ -> i >= Hw.Ept.Eptp_list.max_entries) domains in
  let call_ret d =
    let path = ok (Tyche.Monitor.call m ~core:0 ~target:d) in
    ignore (ok (Tyche.Monitor.ret m ~core:0));
    path
  in
  List.iter (fun d -> ignore (call_ret d)) overflow;
  let fast_overflow =
    List.length (List.filter (fun d -> call_ret d = Tyche.Backend_intf.Fast_switch) overflow)
  in
  row3
    (Printf.sprintf "a2: overflow 2nd calls, %d destroyed" freed)
    (Printf.sprintf "%d/%d" fast_overflow (List.length overflow))
    "taking VMFUNC in a freed slot";
  (* a4: revocation cost under the two TLB strategies. The domain first
     runs on core 0 and reads each of its pages, so every page has a
     cached translation the revoke must invalidate; a domain that never
     ran caches none, and its revoke invalidates nothing. *)
  let revoke_cost ?(ran = true) strategy =
    let w = boot ?tlb_strategy:(Some strategy) ~mem_size:(64 * 1024 * 1024) () in
    let m = w.monitor in
    let base = 0x400000 and n_pages = 64 in
    let d = make_domain w ~name:"v" ~base ~n_pages in
    if ran then begin
      ignore (ok (Tyche.Monitor.call m ~core:0 ~target:d));
      for i = 0 to n_pages - 1 do
        ignore (ok (Tyche.Monitor.load m ~core:0 (base + (i * page))))
      done;
      ignore (ok (Tyche.Monitor.ret m ~core:0))
    end;
    let cap = List.hd (Tyche.Monitor.caps_of m d) in
    Hw.Machine.reset_cycles w.machine;
    ok (Tyche.Monitor.revoke m ~caller:os ~cap);
    Hw.Machine.cycles w.machine
  in
  row3 "a4: revoke 256 KiB, full shootdown"
    (string_of_int (revoke_cost Backend_x86.Full_shootdown))
    "sim cycles";
  row3 "a4: revoke 256 KiB, ASID flush"
    (string_of_int (revoke_cost Backend_x86.Asid_flush))
    "sim cycles";
  row3 "a4: revoke 256 KiB, never ran"
    (string_of_int (revoke_cost ~ran:false Backend_x86.Full_shootdown))
    "sim cycles, nothing cached to invalidate";
  (* a1: refcount queries right after a mutation vs on a quiescent
     tree. The segment index is patched in place by each mutation, so
     the post-mutation query pays only the delta maintenance — there is
     no longer a full O(n log n) region-map rebuild to amortize. *)
  let t, root = build_tree 10_000 in
  let target = Cap.Resource.Memory (range ~base:page ~len:page) in
  let cold_ns =
    timed_loop ~n:50 (fun () ->
        (* Mutate (share+revoke), then query the freshly patched index. *)
        let id, _ =
          Result.get_ok
            (Cap.Captree.share t root ~to_:9 ~rights:Cap.Rights.rw
               ~cleanup:Cap.Revocation.Keep ~subrange:(range ~base:0 ~len:page) ())
        in
        ignore (Result.get_ok (Cap.Captree.revoke t id));
        ignore (Cap.Captree.refcount t target))
  in
  let warm_ns = timed_loop ~n:5000 (fun () -> ignore (Cap.Captree.refcount t target)) in
  row3 "a1: refcount after mutation (10k caps)" (Printf.sprintf "%.0f ns" cold_ns)
    "share+revoke+delta + query";
  row3 "a1: refcount, quiescent (10k caps)" (Printf.sprintf "%.0f ns" warm_ns)
    "indexed Fig. 4 view"

(* --- E1/E2/E3: scenario regeneration summaries --------------------------- *)

let e123 () =
  header "E1-E3: scenario reproductions (Figs. 1-4)";
  (* E3: assert the Fig. 4 refcount vector on a fresh deployment. *)
  let w = boot ~mem_size:(64 * 1024 * 1024) () in
  let m = w.monitor in
  let mk name base = make_domain w ~name ~base ~n_pages:1 in
  let vm = mk "saas-vm" 0x400000 in
  let engine = mk "crypto-engine" 0x500000 in
  ignore vm;
  (* Share one page between vm's creator (os here) and engine is enough
     to exercise the refcount vector; the full deployment lives in
     examples/saas_pipeline.ml and test/test_scenarios.ml. *)
  ignore engine;
  let gpu = ok (Tyche.Monitor.create_domain m ~caller:os ~name:"gpu" ~kind:Tyche.Domain.Io_domain) in
  let shared =
    ok
      (Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w) ~to_:gpu
         ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Zero
         ~subrange:(range ~base:0x600000 ~len:page) ())
  in
  ignore shared;
  let rc r = Cap.Captree.refcount (Tyche.Monitor.tree m) (Cap.Resource.Memory r) in
  row3 "Fig.4 refcount: enclave private page"
    (string_of_int (rc (range ~base:0x400000 ~len:page))) "expect 1";
  row3 "Fig.4 refcount: shared page"
    (string_of_int (rc (range ~base:0x600000 ~len:page))) "expect 2";
  (* E1: attestation round trip wall time. *)
  let quote_ns = timed_loop ~n:20 (fun () -> ignore (Tyche.Monitor.boot_quote m ~nonce:"n")) in
  let rv_root = Rot.Tpm.endorsement_root w.tpm in
  let q = Tyche.Monitor.boot_quote m ~nonce:"n" in
  let verify_ns = timed_loop ~n:50 (fun () -> ignore (Rot.Tpm.Quote.verify ~root:rv_root q)) in
  row3 "E1: TPM quote generation" (Printf.sprintf "%.1f us" (quote_ns /. 1e3)) "wall clock";
  row3 "E1: TPM quote verification" (Printf.sprintf "%.1f us" (verify_ns /. 1e3)) "wall clock";
  (* E2: full pipeline setup cost in simulated cycles. *)
  let w2 = boot ~mem_size:(64 * 1024 * 1024) () in
  Hw.Machine.reset_cycles w2.machine;
  let _ = make_domain w2 ~name:"app" ~base:0x400000 ~n_pages:4 in
  let _ = make_domain w2 ~name:"engine" ~base:0x500000 ~n_pages:2 in
  row3 "E2: deploy app+engine enclaves"
    (string_of_int (Hw.Machine.cycles w2.machine))
    "sim cycles"

(* --- bechamel micro-suite ------------------------------------------------ *)

let micro () =
  header "Microbenchmarks (wall clock, Bechamel OLS estimate)";
  let w = boot ~mem_size:(64 * 1024 * 1024) () in
  let m = w.monitor in
  let spare = ok (Tyche.Monitor.create_domain m ~caller:os ~name:"peer" ~kind:Tyche.Domain.Sandbox) in
  let big_cap = os_memory_cap w in
  let t, root = build_tree 1000 in
  run_bechamel ~name:"micro"
    [ Bechamel.Test.make ~name:"monitor share+revoke (1 page)"
        (Bechamel.Staged.stage (fun () ->
             let c =
               ok
                 (Tyche.Monitor.share m ~caller:os ~cap:big_cap ~to_:spare
                    ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep
                    ~subrange:(range ~base:0x400000 ~len:page) ())
             in
             ok (Tyche.Monitor.revoke m ~caller:os ~cap:c)));
      Bechamel.Test.make ~name:"captree share+revoke (1k-node tree)"
        (Bechamel.Staged.stage (fun () ->
             let id, _ =
               Result.get_ok
                 (Cap.Captree.share t root ~to_:9 ~rights:Cap.Rights.rw
                    ~cleanup:Cap.Revocation.Keep ~subrange:(range ~base:0 ~len:page) ())
             in
             ignore (Result.get_ok (Cap.Captree.revoke t id))));
      Bechamel.Test.make ~name:"sha256 (4 KiB page)"
        (let buf = String.make page 'x' in
         Bechamel.Staged.stage (fun () -> Crypto.Sha256.string buf));
      Bechamel.Test.make ~name:"region_map (Fig. 4 view)"
        (Bechamel.Staged.stage (fun () -> Cap.Captree.region_map (Tyche.Monitor.tree m)));
      Bechamel.Test.make ~name:"invariant sweep (judiciary)"
        (Bechamel.Staged.stage (fun () -> Tyche.Invariants.check_all m)) ]

(* --- extension features (§4.1/§4.2 explorations) ------------------------- *)

let extensions () =
  header "Extension features: hypervisor rings, in-domain paging, MKTME, RDMA links";
  (* Confidential-VM console ring roundtrip. *)
  let w = boot ~mem_size:(64 * 1024 * 1024) () in
  let alloc =
    Kernel.Alloc.create (range ~base:0x400000 ~len:(16 * 1024 * 1024))
  in
  let hv = Kernel.Hypervisor.create w.monitor ~alloc ~host_core:0 ~disk_size:(64 * 1024) in
  let guest_image =
    let b = Image.Builder.create ~name:"bench-guest" in
    let b = Image.Builder.add_segment b ~name:".kernel" ~vaddr:0 ~data:"g" ~perm:Hw.Perm.rx () in
    let b =
      Image.Builder.add_segment b ~name:".virtio" ~vaddr:page ~data:(String.make 16 '\x00')
        ~perm:Hw.Perm.rw ~visibility:Image.Shared ~measured:false ()
    in
    Result.get_ok (Image.Builder.finish (Image.Builder.set_entry b 0))
  in
  let quanta_left = ref 50 in
  let _vm =
    ok_str
      (Kernel.Hypervisor.launch hv ~name:"g" ~image:guest_image ~ram_bytes:(4 * page)
         ~vcpu_cores:[ 1 ]
         ~program:(fun ctx ->
           ctx.Kernel.Hypervisor.console "tick";
           decr quanta_left;
           if !quanta_left <= 0 then `Halt else `Yield))
  in
  Hw.Machine.reset_cycles w.machine;
  let t0 = Unix.gettimeofday () in
  let quanta = Kernel.Hypervisor.run hv () in
  let dt = Unix.gettimeofday () -. t0 in
  row3 "hv: guest quantum + console ring"
    (Printf.sprintf "%d sim cycles" (Hw.Machine.cycles w.machine / max 1 quanta))
    (Printf.sprintf "%.1f us wall" (dt /. float_of_int (max 1 quanta) *. 1e6));
  (* In-domain paging overhead: process write vs direct OS write. *)
  let wk = boot ~mem_size:(64 * 1024 * 1024) () in
  let k = ok_str (Kernel.boot wk.monitor ~core:0 ~heap:(range ~base:0x400000 ~len:(8 * 1024 * 1024))) in
  let paged = ref 0. in
  let _ =
    ok_str
      (Kernel.spawn k ~name:"pager" ~arena_bytes:(4 * page) ~program:(fun ctx ->
           paged :=
             timed_loop ~n:2000 (fun () ->
                 match ctx.Kernel.Process.write 64 "x" with
                 | Ok () -> ()
                 | Error e -> failwith e);
           `Done 0) ())
  in
  let _ = Kernel.run k () in
  let direct =
    timed_loop ~n:2000 (fun () -> ignore (ok (Tyche.Monitor.store wk.monitor ~core:0 0x8000 1)))
  in
  row3 "paged process store (PT + EPT)" (Printf.sprintf "%.0f ns/op" !paged) "wall clock";
  row3 "direct domain store (EPT only)" (Printf.sprintf "%.0f ns/op" direct) "wall clock";
  (* MKTME snoop (the physical attacker's cost is free; ours is the model). *)
  let rng = Crypto.Rng.create ~seed:5L in
  let controller = Hw.Mktme.create rng in
  let mem = Hw.Physmem.create ~size:(1024 * 1024) in
  Hw.Mktme.protect controller ~keyid:1 (range ~base:0 ~len:(16 * page));
  let snoop_ns =
    timed_loop ~n:200 (fun () ->
        ignore (Hw.Mktme.snoop controller mem (range ~base:0 ~len:page)))
  in
  row3 "mktme: snoop 4 KiB (keystream model)" (Printf.sprintf "%.1f us" (snoop_ns /. 1e3))
    "wall clock";
  (* Attested RDMA-style link. *)
  let net = Distributed.Network.create () in
  let key = String.make 32 'k' in
  let a = Distributed.Session.connect net ~local:"a" ~remote:"b" ~key in
  let b = Distributed.Session.connect net ~local:"b" ~remote:"a" ~key in
  let link_ns =
    timed_loop ~n:2000 (fun () ->
        Distributed.Session.send a (String.make 256 'd');
        match Distributed.Session.recv b with
        | Ok _ -> ()
        | Error e -> failwith (Distributed.Session.recv_error_to_string e))
  in
  row3 "rdma link: 256 B send+recv (HMAC)" (Printf.sprintf "%.1f us" (link_ns /. 1e3))
    "wall clock"

(* --- E13: incremental indexes vs full-scan baselines (claims C2/C5) ------ *)

(* Each row is one operation at one tree size. [reference_ns] is nan for
   mutation pairs, which have no full-scan twin to compare against. *)
type capop_row = { size : int; op : string; indexed_ns : float; reference_ns : float }

let capops_json_file = "BENCH_capops.json"

let write_capops_json rows =
  let oc = open_out capops_json_file in
  Printf.fprintf oc "{\n  \"schema\": \"tyche-capops-v1\",\n  \"unit\": \"ns_per_op\",\n";
  Printf.fprintf oc "  \"rows\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      let reference, speedup =
        if Float.is_nan r.reference_ns then ("null", "null")
        else
          ( Printf.sprintf "%.1f" r.reference_ns,
            Printf.sprintf "%.2f" (r.reference_ns /. r.indexed_ns) )
      in
      Printf.fprintf oc
        "    { \"size\": %d, \"op\": %S, \"indexed_ns\": %.1f, \"reference_ns\": %s, \"speedup\": %s }%s\n"
        r.size r.op r.indexed_ns reference speedup
        (if i = last then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

(* The capability-op suite behind BENCH_capops.json. Queries are timed
   on a tree mutated every iteration, so neither side can hide behind a
   quiescent-tree cache: the indexed path pays its delta maintenance,
   the reference path pays its full scan. [smoke] shrinks sizes and
   iteration counts to run under `dune runtest`. Returns the rows plus
   whether the indexed and reference attestation bodies agreed. *)
let capops ?(smoke = false) () =
  if smoke then header "E13 (claims C2/C5): incremental indexes vs full-scan baselines [smoke]"
  else header "E13 (claims C2/C5): incremental indexes vs full-scan baselines";
  let sizes = if smoke then [ 1000 ] else [ 1000; 10_000 ] in
  let iters base = if smoke then max 5 (base / 20) else base in
  (* Smoke runs inside `dune runtest`, concurrently with every other
     test binary: take the best of three short runs so one descheduled
     or GC-hit window can't fail the gate. *)
  let timed_loop ~n f =
    if not smoke then timed_loop ~n f
    else List.fold_left (fun best _ -> Float.min best (timed_loop ~n f)) infinity [ 1; 2; 3 ]
  in
  let rows = ref [] in
  let add size op ~indexed ~reference =
    rows := { size; op; indexed_ns = indexed; reference_ns = reference } :: !rows;
    let note =
      if Float.is_nan reference then "mutation pair (no scan twin)"
      else if String.length op >= 9 && String.sub op 0 9 = "journaled" then
        Printf.sprintf "vs %.0f ns plain, %+.0f%% journal overhead" reference
          ((indexed /. reference -. 1.) *. 100.)
      else Printf.sprintf "vs %.0f ns scan, %.1fx" reference (reference /. indexed)
    in
    row3 (Printf.sprintf "%s (%d caps)" op size) (Printf.sprintf "%.0f ns/op" indexed) note
  in
  let body_ok = ref true in
  List.iter
    (fun n ->
      (* Tree-level ops on a [build_tree n] world: pages 1..n shared to
         domains 1..7, plus a small 8-cap domain 8 — the common case of
         querying one domain out of many. *)
      let t, root = build_tree n in
      let d8_caps =
        List.init 8 (fun j ->
            let id, _ =
              Result.get_ok
                (Cap.Captree.share t root ~to_:8 ~rights:Cap.Rights.full
                   ~cleanup:Cap.Revocation.Keep
                   ~subrange:(range ~base:((n + 2 + j) * page) ~len:page) ())
            in
            id)
      in
      let g8 = List.hd d8_caps in
      let probe = Cap.Resource.Memory (range ~base:page ~len:page) in
      (* Cheapest index-touching mutation: bumps the generation, patches
         the segment store, clears the region cache — used between
         queries below so neither side can answer from a quiescent
         cache. (The share pair below is heavier: revoking a direct
         child of the root pays an O(siblings) unlink in the children
         list, which would swamp the query being measured.) *)
      let mutate () =
        let id, _ =
          Result.get_ok
            (Cap.Captree.grant t g8 ~to_:9 ~rights:Cap.Rights.rw
               ~cleanup:Cap.Revocation.Keep)
        in
        ignore (Result.get_ok (Cap.Captree.revoke t id))
      in
      let share_revoke () =
        let id, _ =
          Result.get_ok
            (Cap.Captree.share t root ~to_:9 ~rights:Cap.Rights.rw
               ~cleanup:Cap.Revocation.Keep ~subrange:(range ~base:0 ~len:page) ())
        in
        ignore (Result.get_ok (Cap.Captree.revoke t id))
      in
      let gr_plain = timed_loop ~n:(iters 2000) mutate in
      let sr_plain = timed_loop ~n:(iters 2000) share_revoke in
      add n "grant+revoke" ~indexed:gr_plain ~reference:nan;
      add n "share+revoke" ~indexed:sr_plain ~reference:nan;
      (* E5/E15: crash-consistency cost on the fault-free path — the
         identical mutation pair inside an open transaction, so every
         tree primitive journals its undo closure (committed, never
         rolled back). Reported with the plain pair as the reference, so
         the JSON ratio reads plain/journaled. *)
      let in_txn f () =
        Cap.Captree.txn_begin t;
        f ();
        Cap.Captree.txn_commit t
      in
      add n "journaled grant+revoke"
        ~indexed:(timed_loop ~n:(iters 2000) (in_txn mutate))
        ~reference:gr_plain;
      add n "journaled share+revoke"
        ~indexed:(timed_loop ~n:(iters 2000) (in_txn share_revoke))
        ~reference:sr_plain;
      add n "refcount"
        ~indexed:
          (timed_loop ~n:(iters 1000) (fun () ->
               mutate ();
               ignore (Cap.Captree.refcount t probe)))
        ~reference:
          (timed_loop ~n:(iters 200) (fun () ->
               mutate ();
               ignore (Cap.Captree.refcount_reference t probe)));
      add n "holders"
        ~indexed:
          (timed_loop ~n:(iters 1000) (fun () ->
               mutate ();
               ignore (Cap.Captree.holders t probe)))
        ~reference:
          (timed_loop ~n:(iters 200) (fun () ->
               mutate ();
               ignore (Cap.Captree.holders_reference t probe)));
      (* No cache sits on this path, so the query is timed directly —
         mutating between queries would only dilute both sides with the
         (identical) mutation cost. *)
      add n "caps_of_domain"
        ~indexed:
          (timed_loop ~n:(iters 2000) (fun () -> ignore (Cap.Captree.caps_of_domain t 8)))
        ~reference:
          (timed_loop ~n:(iters 200) (fun () ->
               ignore (Cap.Captree.caps_of_domain_reference t 8)));
      (* Monitor-level attestation over a tree with n+ caps, where the
         attested domain holds 64 regions. The reference side enumerates
         the body with the full-scan queries and signs it on its own
         signer. Each signer grants 1024 one-time signatures (height
         10); the loop sizes below stay within that budget. *)
      let wa = boot ~mem_size:(128 * 1024 * 1024) ~signer_height:10 () in
      let ma = wa.monitor in
      let fillers =
        Array.init 7 (fun i ->
            ok
              (Tyche.Monitor.create_domain ma ~caller:os ~name:(Printf.sprintf "f%d" i)
                 ~kind:Tyche.Domain.Sandbox))
      in
      let big = os_memory_cap wa in
      let share_page ~to_ i =
        ok
          (Tyche.Monitor.share ma ~caller:os ~cap:big ~to_ ~rights:Cap.Rights.rw
             ~cleanup:Cap.Revocation.Keep
             ~subrange:(range ~base:(0x400000 + (i * page)) ~len:page) ())
      in
      for i = 0 to n - 1 do
        ignore (share_page ~to_:fillers.(i mod 7) i)
      done;
      let att =
        ok (Tyche.Monitor.create_domain ma ~caller:os ~name:"att" ~kind:Tyche.Domain.Sandbox)
      in
      for j = 0 to 63 do
        ignore (share_page ~to_:att (n + j))
      done;
      let attest_mutate () =
        let c = share_page ~to_:fillers.(0) (n + 70) in
        ok (Tyche.Monitor.revoke ma ~caller:os ~cap:c)
      in
      let nonce = ref 0 in
      let attest_once () =
        incr nonce;
        ignore (ok (Tyche.Monitor.attest ma ~caller:os ~domain:att ~nonce:(string_of_int !nonce)))
      in
      let ref_signer = Crypto.Signature.create ~height:10 (Crypto.Rng.create ~seed:13L) in
      let att_domain = Option.get (Tyche.Monitor.find_domain ma att) in
      let attest_reference () =
        incr nonce;
        let regions, cores, devices = Testkit.reference_body ma ~domain:att in
        ignore
          (Tyche.Attestation.sign_batch ~signer:ref_signer ~nonce:(string_of_int !nonce)
             [ (att_domain, regions, cores, devices, false) ])
      in
      add n "attest (mutating tree)"
        ~indexed:
          (timed_loop ~n:(iters 100) (fun () ->
               attest_mutate ();
               attest_once ()))
        ~reference:
          (timed_loop ~n:(iters 20) (fun () ->
               attest_mutate ();
               attest_reference ()));
      add n "attest (memoized, quiescent)"
        ~indexed:(timed_loop ~n:(iters 200) attest_once)
        ~reference:nan;
      (* Cross-check: the indexed and full-scan enumerations must give
         the identical body. *)
      if ok (Tyche.Monitor.attest_body_of ma ~domain:att) <> Testkit.reference_body ma ~domain:att
      then begin
        body_ok := false;
        Printf.printf "  !! attest body mismatch at %d caps\n" n
      end)
    sizes;
  (List.rev !rows, !body_ok)

(* --- E14: attestation fast path (fast crypto, keypool, batching) --------- *)

(* Every comparison is fast implementation vs executable-specification
   twin (Sha256.Spec / Ots.sign_spec / Attestation.sign_spec), except the
   batch row, which compares one 64-report batch against 64 single
   attests (each a batch of one) on the same (fast) crypto. Both sides
   of every ratio run on the same machine under the same load, so the
   floors below (gated by `dune build @perf`, not by `dune runtest`)
   tolerate a busy box. *)
let e14 ?(smoke = false) () =
  if smoke then header "E14: attestation fast path [smoke]"
  else header "E14: attestation fast path (fast crypto vs spec; batch vs sequential)";
  (* The spec twins allocate on every Int32 operation, so their times
     grow with the major heap the experiments before this one leave
     behind; start every run from a compacted heap. *)
  Gc.compact ();
  let timed_loop ~n f =
    if not smoke then timed_loop ~n f
    else List.fold_left (fun best _ -> Float.min best (timed_loop ~n f)) infinity [ 1; 2; 3 ]
  in
  let rows = ref [] in
  let add size op ~fast ~baseline =
    rows := { size; op; indexed_ns = fast; reference_ns = baseline } :: !rows;
    row3 op (Printf.sprintf "%.0f ns/op" fast)
      (Printf.sprintf "vs %.0f ns baseline, %.1fx" baseline (baseline /. fast))
  in
  (* Crypto micro-rows: the unboxed-int core against the Int32 spec. *)
  let iters base = if smoke then max 20 (base / 50) else base in
  let msg64 = String.init 64 (fun i -> Char.chr (i * 7 land 0xff)) in
  let msg4k = String.init page (fun i -> Char.chr (i * 13 land 0xff)) in
  add 64 "e14 sha256 64B"
    ~fast:(timed_loop ~n:(iters 50_000) (fun () -> ignore (Crypto.Sha256.string msg64)))
    ~baseline:
      (timed_loop ~n:(iters 10_000) (fun () -> ignore (Crypto.Sha256.Spec.string msg64)));
  add page "e14 sha256 4KiB"
    ~fast:(timed_loop ~n:(iters 2_000) (fun () -> ignore (Crypto.Sha256.string msg4k)))
    ~baseline:
      (timed_loop ~n:(iters 500) (fun () -> ignore (Crypto.Sha256.Spec.string msg4k)));
  (* One block compression on the kernel every hash runs, against the
     OCaml kernel (the live one where the CPU has no SHA extensions, so
     the row then reads 1x). No floor: the ratio names the CPU. *)
  let state = Bytes.make 32 '\x5a' and block = Bytes.of_string msg64 in
  let compress kernel () = Crypto.Sha256.Kernel.compress kernel ~state ~block ~off:0 in
  add 1 "e14 compression, live kernel vs ocaml"
    ~fast:(timed_loop ~n:(iters 200_000) (compress Crypto.Sha256.Kernel.live))
    ~baseline:(timed_loop ~n:(iters 50_000) (compress Crypto.Sha256.Kernel.Ocaml));
  let sk = Crypto.Ots.draw (Crypto.Rng.create ~seed:41L) in
  let links = Crypto.Ots.links () in
  ignore (Crypto.Ots.expand links sk);
  let digest = Crypto.Sha256.string "e14 message" in
  add 1 "e14 ots sign"
    ~fast:(timed_loop ~n:(iters 500) (fun () -> ignore (Crypto.Ots.sign links digest)))
    ~baseline:(timed_loop ~n:(iters 100) (fun () -> ignore (Crypto.Ots.sign_spec sk digest)));
  (* Where signing's cost went: a signer keeps one seed per key and
     expands the key it signs with, so a whole sign is one key expansion
     plus the link copy above; the spec twin derives and walks the
     chains on Sha256.Spec. No floor: the row reports the expansion
     every attest now pays. The smoke run's best-of-3 loops sign 132
     times, within the signer's 1,024 keys, whose footprint is counted
     rather than timed. *)
  let signer = Crypto.Signature.create ~height:10 (Crypto.Rng.create ~seed:42L) in
  Printf.printf "  height-10 signer: %d bytes\n"
    (Obj.reachable_words (Obj.repr signer) * (Sys.word_size / 8));
  let msg = "e14 message" in
  add 1 "e14 signature sign"
    ~fast:(timed_loop ~n:(iters 100) (fun () -> ignore (Crypto.Signature.sign signer msg)))
    ~baseline:
      (timed_loop ~n:(iters 20) (fun () -> ignore (Crypto.Signature.sign_spec signer msg)));
  (* The attest baselines sign the monitor's memoized body on the spec
     stack with a signer of their own, sized to the loops: smoke's
     best-of-3 sweeps sign 576 times, the full run 406. *)
  let spec_signer = Crypto.Signature.create ~height:10 (Crypto.Rng.create ~seed:45L) in
  let attest_spec m domain nonce =
    let regions, cores, devices = ok (Tyche.Monitor.attest_body_of m ~domain) in
    ignore
      (Tyche.Attestation.sign_spec ~signer:spec_signer
         ~domain:(Option.get (Tyche.Monitor.find_domain m domain))
         ~regions ~cores ~devices ~memory_encrypted:false ~nonce)
  in
  (* Single-domain attest on the E13 world shape (10k filler caps, the
     attested domain holding 64 regions): fast core vs Sha256.Spec,
     identical enumeration on both sides. Skipped in smoke — the 10k-cap
     world is too slow to build under `dune runtest`; the crypto rows
     above already gate the same code paths. *)
  if not smoke then begin
    let n = 10_000 in
    let pool = Crypto.Keypool.create ~target:128 (Crypto.Rng.create ~seed:43L) in
    let w = boot ~mem_size:(128 * 1024 * 1024) ~signer_height:10 ~keypool:pool () in
    let m = w.monitor in
    let fillers =
      Array.init 7 (fun i ->
          ok
            (Tyche.Monitor.create_domain m ~caller:os ~name:(Printf.sprintf "f%d" i)
               ~kind:Tyche.Domain.Sandbox))
    in
    let big = os_memory_cap w in
    let share_page ~to_ i =
      ok
        (Tyche.Monitor.share m ~caller:os ~cap:big ~to_ ~rights:Cap.Rights.rw
           ~cleanup:Cap.Revocation.Keep
           ~subrange:(range ~base:(0x400000 + (i * page)) ~len:page) ())
    in
    for i = 0 to n - 1 do
      ignore (share_page ~to_:fillers.(i mod 7) i)
    done;
    let att =
      ok (Tyche.Monitor.create_domain m ~caller:os ~name:"att" ~kind:Tyche.Domain.Sandbox)
    in
    for j = 0 to 63 do
      ignore (share_page ~to_:att (n + j))
    done;
    let nonce = ref 0 in
    let fresh () =
      incr nonce;
      string_of_int !nonce
    in
    add n "e14 attest single (10k caps) vs spec"
      ~fast:
        (timed_loop ~n:100 (fun () ->
             ignore (ok (Tyche.Monitor.attest m ~caller:os ~domain:att ~nonce:(fresh ())))))
      ~baseline:(timed_loop ~n:20 (fun () -> attest_spec m att (fresh ())))
  end;
  (* Key generation: 256 one-time keys through [Keypool.generate_batch],
     which derives the leaves on every hardware thread, against a loop
     of [Keypool.generate] on one. Same keys on both sides; no floor,
     since the ratio is bounded by the hardware threads the machine has
     (2 here). *)
  let keygen_n = 256 in
  let per_key ns = ns /. float_of_int keygen_n in
  add keygen_n "e14 keygen(256) batch vs sequential"
    ~fast:
      (per_key
         (timed_loop ~n:2 (fun () ->
              ignore (Crypto.Keypool.generate_batch (Crypto.Rng.create ~seed:47L) keygen_n))))
    ~baseline:
      (per_key
         (timed_loop ~n:2 (fun () ->
              let rng = Crypto.Rng.create ~seed:47L in
              for _ = 1 to keygen_n do
                ignore (Crypto.Keypool.generate rng)
              done)));
  (* Batched attestation: one root signature over 64 one-page domains.
     Two baselines, reported separately: 64 sequential single attests on
     the unoptimized pipeline (the memoized body signed on the
     executable-spec stack — this is the acceptance row), and 64
     sequential single attests on the optimized stack (the honest
     marginal win of batching alone; no floor). Small domains on
     purpose — the rows measure signature amortization, not body
     enumeration (identical and memoized on all sides). Beyond latency,
     the batch consumes 1 one-time key where the sequential runs
     consume 64: sequential iteration counts are sized against the
     signer's 2^height key budget. *)
  let batch_n = 64 in
  let pool = Crypto.Keypool.create ~target:128 (Crypto.Rng.create ~seed:44L) in
  let wb = boot ~mem_size:(128 * 1024 * 1024) ~signer_height:11 ~keypool:pool () in
  let mb = wb.monitor in
  let domains =
    List.init batch_n (fun i ->
        make_domain wb ~name:(Printf.sprintf "b%d" i) ~base:(0x400000 + (i * 2 * page))
          ~n_pages:1)
  in
  let nonce = ref 0 in
  let fresh_nonce () =
    incr nonce;
    string_of_int !nonce
  in
  let seq_iters = if smoke then 2 else 5 in
  let batch_iters = if smoke then 5 else 50 in
  let per_domain ns = ns /. float_of_int batch_n in
  let sequential attest_fn =
    timed_loop ~n:seq_iters (fun () ->
        let nc = fresh_nonce () in
        List.iter (fun d -> attest_fn d nc) domains)
  in
  let seq_spec_ns = sequential (attest_spec mb) in
  let seq_fast_ns =
    sequential (fun d nc -> ignore (ok (Tyche.Monitor.attest mb ~caller:os ~domain:d ~nonce:nc)))
  in
  let batch_ns =
    timed_loop ~n:batch_iters (fun () ->
        ignore
          (ok (Tyche.Monitor.attest_batch mb ~caller:os ~domains ~nonce:(fresh_nonce ()))))
  in
  add batch_n "e14 attest_batch(64) per-domain" ~fast:(per_domain batch_ns)
    ~baseline:(per_domain seq_spec_ns);
  add batch_n "e14 attest_batch(64) vs fast sequential" ~fast:(per_domain batch_ns)
    ~baseline:(per_domain seq_fast_ns);
  (* Cross-check while we have the world: every report of a 64-domain
     batch must verify against the monitor root. *)
  let root = Tyche.Monitor.attestation_root mb in
  let batch = ok (Tyche.Monitor.attest_batch mb ~caller:os ~domains ~nonce:"agree") in
  let all_verify =
    List.for_all (Tyche.Attestation.verify ~monitor_root:root) batch
  in
  if not all_verify then begin
    Printf.printf "  !! batched attestation failed to verify\n";
    exit 1
  end;
  let hits, misses = Crypto.Keypool.stats pool in
  Printf.printf "  keypool: %d takes from stock, %d on-demand (stock %d/%d)\n" hits misses
    (Crypto.Keypool.size pool) (Crypto.Keypool.target pool);
  List.rev !rows

(* Load-tolerant floors for the E14 ratios, gated by `dune build @perf`
   (bench-smoke gates {!e14_twins} instead). Each ratio compares two
   measurements taken on the same machine moments apart, so background
   load mostly cancels out; the floors sit well under the healthy
   margins:
   - sha256: the bound is set for a CPU without SHA extensions, where
     the unboxed-Int32 OCaml kernel runs ~1.6-1.8x the Spec
     transliteration (non-flambda OCaml compiles Spec's int32 locals to
     decent 32-bit code; the win is deallocation + unsafe access), so
     1.3x catches a revert to Spec without flaking on either kernel.
     On the SHA extensions the ratio is far higher.
   - ots sign: copying expanded chain links makes sign ~300x the spec
     derivation and walk; a regression to chain-walking lands under ~2x,
     so 10x is decisive.
   - attest_batch: one root signature per 64 domains vs 64 spec-pipeline
     signs runs >50x; 5x only trips if batching or the fast crypto
     breaks. (The "vs fast sequential" row is informational, no floor:
     every signature now expands its one-time key, ~1 ms, so 64
     sequential attests pay 64 expansions where the batch pays one, and
     the row reads tens of x; it also spends 64x fewer one-time keys.) *)
let e14_floor op =
  if op = "e14 attest_batch(64) per-domain" then Some 5.0
  else if op = "e14 ots sign" then Some 10.0
  else if String.length op >= 10 && String.sub op 0 10 = "e14 sha256" then Some 1.3
  else None

(* E14's deterministic twins: the same three claims on counts that no
   load can move. Minor-heap words per call, fast path against its spec
   twin, for the hash at 64 B and 4 KiB and for the one-time signature
   (each loop starts right after a [Gc.minor]; [Gc.minor_words] is
   exact, while OCaml 5.1's [Gc.counters] counts the words of the
   current minor heap one eighth); and the one-time keys a 64-entry
   [Attestation.sign_batch] spends on a signer of its own, against 64
   single-report batches. *)
let e14_twins () =
  header "E14 twins: minor words per call, one-time keys per batch";
  let rows = ref [] in
  let add size op ~unit ~fast ~baseline =
    rows := { size; op; indexed_ns = fast; reference_ns = baseline } :: !rows;
    row3 op (Printf.sprintf "%.1f %s" fast unit)
      (Printf.sprintf "vs %.0f %s baseline, %.0fx" baseline unit (baseline /. fast))
  in
  let words ~n f =
    Gc.minor ();
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let msg64 = String.init 64 (fun i -> Char.chr (i * 7 land 0xff)) in
  let msg4k = String.init page (fun i -> Char.chr (i * 13 land 0xff)) in
  List.iter
    (fun (label, msg) ->
      add (String.length msg) (Printf.sprintf "e14 sha256 %s minor words" label) ~unit:"words"
        ~fast:(words ~n:100 (fun () -> ignore (Crypto.Sha256.string msg)))
        ~baseline:(words ~n:10 (fun () -> ignore (Crypto.Sha256.Spec.string msg))))
    [ ("64B", msg64); ("4KiB", msg4k) ];
  let sk = Crypto.Ots.draw (Crypto.Rng.create ~seed:41L) in
  let links = Crypto.Ots.links () in
  ignore (Crypto.Ots.expand links sk);
  let digest = Crypto.Sha256.string "e14 message" in
  add 1 "e14 ots sign minor words" ~unit:"words"
    ~fast:(words ~n:100 (fun () -> ignore (Crypto.Ots.sign links digest)))
    ~baseline:(words ~n:2 (fun () -> ignore (Crypto.Ots.sign_spec sk digest)));
  let signer = Crypto.Signature.create ~height:7 (Crypto.Rng.create ~seed:46L) in
  let entries =
    List.init 64 (fun i ->
        ( Tyche.Domain.make ~id:(i + 1) ~name:(Printf.sprintf "k%d" i)
            ~kind:Tyche.Domain.Sandbox ~created_by:(Some 0),
          [],
          [ (0, 1) ],
          [],
          false ))
  in
  let keys f =
    let before = Crypto.Signature.remaining signer in
    f ();
    float_of_int (before - Crypto.Signature.remaining signer)
  in
  add 64 "e14 attest_batch(64) one-time keys" ~unit:"keys"
    ~fast:(keys (fun () -> ignore (Tyche.Attestation.sign_batch ~signer ~nonce:"b" entries)))
    ~baseline:
      (keys (fun () ->
           List.iter
             (fun e -> ignore (Tyche.Attestation.sign_batch ~signer ~nonce:"s" [ e ]))
             entries));
  List.rev !rows

(* Bounds for the twins. A fast path bound back to its spec twin reads
   1x on words; the healthy ratios are ~100x (sha256 64B), ~3,000x
   (4KiB) and ~250x (ots sign), so a 10x floor is decisive. A batch
   spends exactly one key, however many entries it has. *)
let e14_twin_failure r =
  if r.op = "e14 attest_batch(64) one-time keys" then
    if r.indexed_ns = 1. then None
    else Some (Printf.sprintf "%s: a 64-entry batch spent %.0f keys (<> 1)" r.op r.indexed_ns)
  else if r.reference_ns /. r.indexed_ns < 10. then
    Some
      (Printf.sprintf "%s: %.1f words fast vs %.0f words spec (< 10x)" r.op r.indexed_ns
         r.reference_ns)
  else None

(* E16: what durability costs, on a world with [n] committed share
   operations in the log:
   - "e16 wal append": framing + appending + fsyncing one record — the
     per-op price of the redo log — against a cold checkpoint of the
     same state (the first one into an empty store, which serializes
     every bucket), the alternative the log exists to amortize.
   - "e16 cold checkpoint@10k": that checkpoint itself (informational,
     no twin).
   {!e16_recover} times crash recovery, and {!e16_twin} counts the
   bytes and fsyncs the first row is made of. *)

let e16_row rows size op ~fast ~baseline =
  rows := { size; op; indexed_ns = fast; reference_ns = baseline } :: !rows;
  let note =
    if Float.is_nan baseline then "checkpoint (no twin)"
    else Printf.sprintf "vs %.0f ns baseline, %.1fx" baseline (baseline /. fast)
  in
  row3 (Printf.sprintf "%s (%d ops)" op size) (Printf.sprintf "%.0f ns/op" fast) note

(* [n_ops] one-page shares from domain 0's memory into seven sandboxes,
   each commit appended to the WAL of [wrap]'s store and fsynced, with
   no checkpoint cadence. Returns the monitor, the store and the shares
   as a loop not yet run. *)
let e16_world ?(wrap = Fun.id) n_ops =
  let w = boot ~mem_size:(128 * 1024 * 1024) () in
  let m = w.monitor in
  let store = wrap (Persist.Store.mem ()) in
  Tyche.Monitor.enable_persistence m ~store ~snapshot_every:max_int ~fsync_every:1 ();
  let fillers =
    Array.init 7 (fun i ->
        ok
          (Tyche.Monitor.create_domain m ~caller:os ~name:(Printf.sprintf "p%d" i)
             ~kind:Tyche.Domain.Sandbox))
  in
  let big = os_memory_cap w in
  let shares () =
    for i = 0 to n_ops - 1 do
      ignore
        (ok
           (Tyche.Monitor.share m ~caller:os ~cap:big ~to_:fillers.(i mod 7)
              ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep
              ~subrange:(range ~base:(0x400000 + (i * page)) ~len:page) ()))
    done
  in
  (m, store, shares)

let e16_ops ~smoke = if smoke then 1_000 else 10_000

let e16 ?(smoke = false) () =
  if smoke then header "E16: durability — WAL append, cold checkpoint [smoke]"
  else header "E16: durability — WAL append, cold checkpoint";
  let n_ops = e16_ops ~smoke in
  let m, store, shares = e16_world n_ops in
  shares ();
  (* A record to append, read before the timed checkpoints reset the
     WAL. *)
  let wal_full = Persist.Store.read store Persist.Store.wal_blob in
  let payload =
    match (Persist.Wal.parse wal_full).Persist.Wal.records with
    | (_, p) :: _ -> p
    | [] -> failwith "e16: empty WAL"
  in
  let scratch = Persist.Store.mem () in
  let append_ns =
    timed_loop
      ~n:(if smoke then 2_000 else 50_000)
      (fun () ->
        Persist.Wal.append scratch ~blob:Persist.Store.wal_blob ~seq:1 payload;
        Persist.Store.fsync scratch Persist.Store.wal_blob)
  in
  (* Re-arming persistence on an empty store takes a cold checkpoint. *)
  let cold_ns =
    timed_loop
      ~n:(if smoke then 3 else 20)
      (fun () ->
        Tyche.Monitor.enable_persistence m ~store:(Persist.Store.mem ())
          ~snapshot_every:max_int ())
  in
  let rows = ref [] in
  e16_row rows n_ops "e16 wal append" ~fast:append_ns ~baseline:cold_ns;
  e16_row rows n_ops "e16 cold checkpoint@10k" ~fast:cold_ns ~baseline:Float.nan;
  List.rev !rows

(* "e16 recover@10k": crash-restart from a fresh checkpoint (manifest
   and segment decode + hardware rebuild) against replaying the entire
   history from the seq-0 checkpoint — why checkpoint cadence matters. *)
let e16_recover ?(smoke = false) () =
  if smoke then header "E16: durability — crash recovery [smoke]"
  else header "E16: durability — crash recovery";
  let n_ops = e16_ops ~smoke in
  (* Recovery world: a long history that nets a small tree (share+revoke
     churn). Replay re-executes the whole history through the monitor;
     checkpoint recovery restores only the surviving state — the case
     checkpoint cadence exists for. (The big-tree {!e16_world} would
     hide the difference: there, history length equals state size and
     both paths bottom out in the same hardware rebuild.) *)
  let mem_size_b = 16 * 1024 * 1024 in
  let wb = boot ~mem_size:mem_size_b () in
  let mb = wb.monitor in
  let store_b = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence mb ~store:store_b ~snapshot_every:max_int
    ~fsync_every:1 ();
  let churn =
    ok (Tyche.Monitor.create_domain mb ~caller:os ~name:"churn" ~kind:Tyche.Domain.Sandbox)
  in
  let big_b = os_memory_cap wb in
  for _ = 1 to n_ops / 2 do
    let c =
      ok
        (Tyche.Monitor.share mb ~caller:os ~cap:big_b ~to_:churn ~rights:Cap.Rights.rw
           ~cleanup:Cap.Revocation.Keep
           ~subrange:(range ~base:0x400000 ~len:page) ())
    in
    ok (Tyche.Monitor.revoke mb ~caller:os ~cap:c)
  done;
  let final_seq_b = Option.get (Tyche.Monitor.persist_seq mb) in
  (* Copies of the whole store: a checkpoint lives in two blobs. *)
  let image () =
    List.map
      (fun blob -> (blob, Persist.Store.read store_b blob))
      Persist.Store.[ wal_blob; snap_blob; seg_blob ]
  in
  let replay_image = image () in
  Tyche.Monitor.checkpoint mb;
  let chk_image = image () in
  (* Each restart consumes a fresh machine + backend (the crashed one's
     in-memory state is gone), so build the target outside the timed
     window — the row measures recovery, not machine construction. *)
  let recover_iters = if smoke then 1 else 3 in
  (* [replayed] is the deterministic gate on the two twins: checkpoint
     recovery must replay nothing and the replay-all twin the whole
     history. The timings are printed but gate nothing. *)
  let time_recover preload ~replayed =
    let total = ref 0.0 in
    for _ = 1 to recover_iters do
      let machine = Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores:4 ~mem_size:mem_size_b () in
      let rng = Crypto.Rng.create ~seed:99L in
      let tpm = Rot.Tpm.create rng in
      let br =
        Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image
      in
      let backend = Backend_x86.create machine () in
      let store = Persist.Store.mem ~preload () in
      (* A tiny signer: keygen is a fixed ~40 ms boot cost paid
         identically by both recovery paths and would drown the row
         being measured. *)
      let start = Unix.gettimeofday () in
      (match
         Tyche.Monitor.recover ~signer_height:2 machine ~store ~backend ~tpm ~rng
           ~monitor_range:br.Rot.Boot.monitor_range
       with
      | Ok (_, report) ->
        if report.Tyche.Monitor.rr_seq <> final_seq_b then
          failwith
            (Printf.sprintf "e16: recovered seq %d, wanted %d" report.Tyche.Monitor.rr_seq
               final_seq_b);
        if report.Tyche.Monitor.rr_replayed <> replayed then
          failwith
            (Printf.sprintf "e16: recovery replayed %d records, wanted %d"
               report.Tyche.Monitor.rr_replayed replayed)
      | Error e -> failwith ("e16 recover: " ^ e));
      total := !total +. (Unix.gettimeofday () -. start)
    done;
    !total /. float_of_int recover_iters *. 1e9
  in
  let chk_recover_ns = time_recover chk_image ~replayed:0 in
  let replay_recover_ns = time_recover replay_image ~replayed:final_seq_b in
  let rows = ref [] in
  e16_row rows n_ops "e16 recover@10k" ~fast:chk_recover_ns ~baseline:replay_recover_ns;
  !rows

(* Floors for the E16 ratios, gated by `dune build @perf` (bench-smoke
   gates {!e16_twin} instead), loose for the same busy-CI reasons as
   {!e14_floor}:
   - wal append: a share's record is about 20 bytes framed
     ({!e16_twin} counts them); the cold checkpoint it defers
     serializes the whole tree. Thousands of times cheaper in
     practice; 10x only trips if the append path starts checkpointing
     per op.
   - recover: no timing floor. One wall-clock sample per side is too
     noisy to gate on (smoke's 1k-op history shows only ~1.7x);
     [e16_recover] instead checks the replayed-record counts, which are
     exact, and bench-smoke runs it for them.
   - cold checkpoint: informational, no floor (NaN reference). *)
let e16_floor op = if op = "e16 wal append" then Some 10.0 else None

(* E16's deterministic twin: what "e16 wal append" weighs, counted
   through a wrapper around the store of the same journaled world. Per
   share: WAL barriers, checkpoint (manifest and segment) bytes and WAL
   bytes; and the bytes of a cold checkpoint of the state the shares
   built, the reference the append is measured against. *)
let e16_twin () =
  header "E16 twin: store bytes and fsyncs per journaled share";
  let n_ops = e16_ops ~smoke:true in
  let bytes = Hashtbl.create 4 and syncs = Hashtbl.create 4 in
  let find tbl blob = Option.value ~default:0 (Hashtbl.find_opt tbl blob) in
  let count tbl blob n = Hashtbl.replace tbl blob (find tbl blob + n) in
  let wrap inner =
    { inner with
      Persist.Store.append =
        (fun blob data ->
          count bytes blob (String.length data);
          inner.Persist.Store.append blob data);
      replace =
        (fun blob data ->
          count bytes blob (String.length data);
          inner.Persist.Store.replace blob data);
      fsync =
        (fun blob ->
          count syncs blob 1;
          inner.Persist.Store.fsync blob) }
  in
  let m, _, shares = e16_world ~wrap n_ops in
  Hashtbl.reset bytes;
  Hashtbl.reset syncs;
  shares ();
  let per n = float_of_int n /. float_of_int n_ops in
  let wal_syncs = per (find syncs Persist.Store.wal_blob) in
  let ckpt_bytes = per (find bytes Persist.Store.snap_blob + find bytes Persist.Store.seg_blob) in
  let wal_bytes = per (find bytes Persist.Store.wal_blob) in
  (* Re-arming persistence on an empty store takes a cold checkpoint. *)
  Hashtbl.reset bytes;
  Tyche.Monitor.enable_persistence m ~store:(wrap (Persist.Store.mem ()))
    ~snapshot_every:max_int ();
  let cold_bytes = float_of_int (Hashtbl.fold (fun _ n acc -> acc + n) bytes 0) in
  row3 "e16 twin WAL fsyncs per share" (Printf.sprintf "%.2f" wal_syncs) "";
  row3 "e16 twin checkpoint bytes per share" (Printf.sprintf "%.1f B" ckpt_bytes) "";
  row3 "e16 twin WAL bytes per share" (Printf.sprintf "%.1f B" wal_bytes)
    (Printf.sprintf "vs %.0f B cold checkpoint, %.0fx" cold_bytes (cold_bytes /. wal_bytes));
  [ { size = n_ops; op = "e16 twin WAL fsyncs per share"; indexed_ns = wal_syncs;
      reference_ns = nan };
    { size = n_ops; op = "e16 twin checkpoint bytes per share"; indexed_ns = ckpt_bytes;
      reference_ns = nan };
    { size = n_ops; op = "e16 twin WAL bytes per share"; indexed_ns = wal_bytes;
      reference_ns = cold_bytes } ]

(* Bounds for the twin. Each share is one WAL record made durable by
   one barrier and writes no checkpoint byte; a checkpoint per op (what
   the wall floor was meant to catch) writes a manifest and segments
   every share. A share's record is 13 payload bytes in 19 or 20 framed
   (6-byte header, 7 from seq 128 on): 19.88 B over the 1,000 shares,
   so one more byte per share fails the 19.9 B bound. A cold checkpoint
   of the shares' state (about 16 KB) must outweigh it at least 10x,
   the wall floor's ratio. *)
let e16_twin_failure r =
  match r.op with
  | "e16 twin WAL fsyncs per share" when r.indexed_ns <> 1. ->
    Some (Printf.sprintf "%s: %.2f (<> 1)" r.op r.indexed_ns)
  | "e16 twin checkpoint bytes per share" when r.indexed_ns <> 0. ->
    Some (Printf.sprintf "%s: %.1f B (<> 0)" r.op r.indexed_ns)
  | "e16 twin WAL bytes per share" when r.indexed_ns > 19.9 ->
    Some (Printf.sprintf "%s: %.2f B (> 19.9 B)" r.op r.indexed_ns)
  | "e16 twin WAL bytes per share" when r.reference_ns /. r.indexed_ns < 10. ->
    Some
      (Printf.sprintf "%s: %.1f B vs %.0f B cold checkpoint (< 10x)" r.op r.indexed_ns
         r.reference_ns)
  | _ -> None

(* E17: what observability costs. One row: the journaled monitor
   share+revoke pair (WAL append + fsync every commit — the op shape
   DESIGN.md §9's overhead contract is written against) with tracing ON
   vs the identical pair with tracing OFF. Tracing ON means the full
   pipeline: span events into the ring, latency histograms, op
   counters, per-domain counts, cascade-shape histograms on revoke.
   Both sides run moments apart on the same machine, so load cancels
   out of the ratio. *)
(* A fresh world with journaled persistence (mem store, fsync every
   op) and the share+revoke pair E17 and its twin run on it. *)
let e17_pair () =
  let w = boot () in
  let m = w.monitor in
  Tyche.Monitor.enable_persistence m ~store:(Persist.Store.mem ()) ~snapshot_every:max_int
    ~fsync_every:1 ();
  let d = ok (Tyche.Monitor.create_domain m ~caller:os ~name:"e17" ~kind:Tyche.Domain.Sandbox) in
  let big = os_memory_cap w in
  fun () ->
    let c =
      ok
        (Tyche.Monitor.share m ~caller:os ~cap:big ~to_:d ~rights:Cap.Rights.rw
           ~cleanup:Cap.Revocation.Keep ~subrange:(range ~base:0x400000 ~len:page) ())
    in
    ok (Tyche.Monitor.revoke m ~caller:os ~cap:c)

(* An instrumented run must leave the span accounting balanced — a
   leaked span here would also poison the chaos drivers' audit. *)
let e17_audit () =
  match Obs.check () with
  | Ok () -> ()
  | Error msg ->
    Printf.printf "  !! Obs.check failed after instrumented run: %s\n" msg;
    exit 1

let e17 ?(smoke = false) () =
  if smoke then header "E17: observability overhead [smoke]"
  else header "E17: observability overhead (tracing on vs off, journaled op path)";
  (* Same loop length in smoke and full: at 1k pairs the steady-state
     base op runs ~25% faster than at 10k, and since tracing adds a
     constant per-op cost, a faster denominator inflates the measured
     *relative* overhead — the smoke gate was sitting at 1.15-1.22x
     against the 1.2 ceiling while the full run measures ~1.1x. *)
  let n = 10_000 in
  let reps = if smoke then 5 else 3 in
  let measure tracing =
    let was = Obs.enabled () in
    Obs.set_enabled tracing;
    Obs.reset ();
    let ns = timed_loop ~n (e17_pair ()) in
    if tracing then e17_audit ();
    Obs.set_enabled was;
    ns
  in
  (* Measure the two modes back-to-back and gate on min-vs-min across
     all samples (the E18 trick): a slow phase — GC major, noisy
     neighbor, core migration — can only ever *inflate* a sample, so
     the min of several runs is the best estimate of each mode's true
     cost. (A median of per-pair ratios was tried first, but the
     measured windows are a few ms — far shorter than the scheduler
     quanta of a loaded CI box — so noise does not hit both halves of
     a pair alike, and a transient landing on two or three "on"
     halves shifted the median past the ceiling intermittently.) If
     the mins still look over the contract, run more rounds. *)
  let ons = ref [] and offs = ref [] in
  let round () =
    for _ = 1 to reps do
      offs := measure false :: !offs;
      ons := measure true :: !ons
    done
  in
  let best samples = List.fold_left Float.min infinity !samples in
  let ratio () = best ons /. best offs in
  round ();
  let attempts = ref 1 in
  while ratio () > 1.15 && !attempts < 3 do
    incr attempts;
    round ()
  done;
  let on_ns, off_ns = (best ons, best offs) in
  row3 "e17 journaled share+revoke, tracing on"
    (Printf.sprintf "%.0f ns/op" on_ns)
    (Printf.sprintf "vs %.0f ns off, %+.1f%% overhead" off_ns
       ((on_ns /. off_ns -. 1.) *. 100.));
  [ { size = n; op = "e17 journaled pair, tracing on"; indexed_ns = on_ns;
      reference_ns = off_ns } ]

(* Ceiling for the E17 ratio: the observability contract (DESIGN.md §9)
   promises <= 1.2x on journaled op paths with tracing on. The journaled
   pair commits a WAL record and fsync per op, which dwarfs the ~10
   ring/metric updates tracing adds; in practice the overhead sits in
   single-digit percent, so 1.2x trips only if the instrumentation
   starts allocating or scanning per event. *)
let e17_ceiling op = if op = "e17 journaled pair, tracing on" then Some 1.2 else None

(* E17's deterministic twin, gated by bench-smoke (the wall ratio above
   is gated by `dune build @perf`): the same journaled share+revoke
   pair on two identically booted worlds, tracing off on one and on on
   the other, counting the words each pair allocates (minor words plus
   words allocated straight into the major heap, as E18 counts them)
   and the Obs events it emits, then audits the traced run's spans as
   [e17] does (the one tier-1 span audit on the journaled path). The
   emit path's contract is zero allocation, so the two word counts are
   equal; an emit that allocates one two-word block per event reads 24
   words a pair more with tracing on (1,550.8 against 1,526.8). *)
let e17_twin_pairs = 2_000
let e17_twin_events = 12.

let e17_twin () =
  header "E17 twin: words and Obs events per journaled pair, tracing on vs off";
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let measure tracing =
    let was = Obs.enabled () in
    Obs.set_enabled tracing;
    Obs.reset ();
    let pair = e17_pair () in
    for _ = 1 to 100 do
      pair ()
    done;
    let e0 = Obs.written () in
    let w0 = words () in
    for _ = 1 to e17_twin_pairs do
      pair ()
    done;
    let w1 = words () in
    let e1 = Obs.written () in
    if tracing then e17_audit ();
    Obs.set_enabled was;
    let per x = x /. float_of_int e17_twin_pairs in
    (per (w1 -. w0), per (float_of_int (e1 - e0)))
  in
  let off_words, off_events = measure false in
  let on_words, on_events = measure true in
  row3 "e17 twin words per pair" (Printf.sprintf "%.1f on" on_words)
    (Printf.sprintf "vs %.1f off" off_words);
  row3 "e17 twin Obs events per pair" (Printf.sprintf "%.2f on" on_events)
    (Printf.sprintf "vs %.2f off" off_events);
  [ { size = e17_twin_pairs; op = "e17 twin words per pair"; indexed_ns = on_words;
      reference_ns = off_words };
    { size = e17_twin_pairs; op = "e17 twin Obs events per pair"; indexed_ns = on_events;
      reference_ns = off_events } ]

let e17_twin_failure r =
  if r.op = "e17 twin words per pair" && r.indexed_ns <> r.reference_ns then
    Some
      (Printf.sprintf "%s: %.1f words with tracing on vs %.1f off (<> equal)" r.op r.indexed_ns
         r.reference_ns)
  else if r.op = "e17 twin Obs events per pair" && r.indexed_ns <> e17_twin_events then
    Some
      (Printf.sprintf "%s: %.2f events with tracing on (<> %.0f)" r.op r.indexed_ns
         e17_twin_events)
  else None

(* E18: what durable *throughput* costs. Three row groups here, plus
   the revocation cascade in {!e18_cascade}:
   - "e18 group commit(64)": per-record cost of the redo log on a real
     filesystem when 64 records share one fsync, against the per-op
     fsync discipline the group queue replaces. Runs at the persist
     layer so the ratio isolates the durability barrier, not monitor
     op execution.
   - "e18 ckpt pause@10k": the stop-the-world pause of an incremental
     checkpoint at steady state (one dirty bucket) on a 10k-cap world,
     against a cold checkpoint of the same world (the first one into an
     empty store, which serializes every bucket).
   - "e18 ckpt bytes@10k": bytes appended to the manifest and segment
     streams by that incremental checkpoint vs the cold one. *)
let e18 ?(smoke = false) () =
  if smoke then header "E18: durable throughput [smoke]"
  else header "E18: durable throughput — group commit, incremental checkpoints";
  let rows = ref [] in
  let add size op ~fast ~baseline note =
    rows := { size; op; indexed_ns = fast; reference_ns = baseline } :: !rows;
    row3 op (Printf.sprintf "%.0f ns/op" fast) note
  in
  (* --- group commit on the file store --- *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "tyche-bench-e18" in
  let wipe () =
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  in
  wipe ();
  let payload = String.make 96 'r' in
  let n_rec = if smoke then 2_000 else 20_000 in
  let run_group max_batch =
    let store = Persist.Store.file ~dir in
    Persist.Store.reset store Persist.Store.wal_blob;
    let g =
      Persist.Group.create ~max_batch store ~blob:Persist.Store.wal_blob ~durable_seq:0
    in
    let seq = ref 0 in
    let ns =
      timed_loop ~n:n_rec (fun () ->
          incr seq;
          Persist.Group.append g ~seq:!seq payload)
    in
    Persist.Group.flush g;
    ns
  in
  let per_op_ns = run_group 1 in
  let batched_ns = run_group 64 in
  wipe ();
  if Sys.file_exists dir then Sys.rmdir dir;
  add n_rec "e18 group commit(64) file store" ~fast:batched_ns ~baseline:per_op_ns
    (Printf.sprintf "vs %.0f ns per-op fsync, %.1fx" per_op_ns (per_op_ns /. batched_ns));
  (* --- incremental vs cold checkpoint on a 10k-cap world ---
     Smoke keeps the full 10k-cap world: building it is plain shares
     (cheap), and the acceptance ratio is defined at 10k — a smaller
     world shrinks the cold-checkpoint baseline while the incremental
     pause stays constant, understating the ratio. Only the timed
     iteration counts shrink in smoke. *)
  let n_ops = 10_000 in
  let w = boot ~mem_size:(128 * 1024 * 1024) () in
  let m = w.monitor in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence m ~store ~snapshot_every:max_int ~fsync_every:1 ();
  let fillers =
    Array.init 7 (fun i ->
        ok
          (Tyche.Monitor.create_domain m ~caller:os ~name:(Printf.sprintf "c%d" i)
             ~kind:Tyche.Domain.Sandbox))
  in
  let big = os_memory_cap w in
  let next_page = ref 0 in
  let share_one () =
    let i = !next_page in
    incr next_page;
    ignore
      (ok
         (Tyche.Monitor.share m ~caller:os ~cap:big ~to_:fillers.(i mod 7)
            ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep
            ~subrange:(range ~base:(0x400000 + (i * page)) ~len:page) ()))
  in
  for _ = 1 to n_ops do
    share_one ()
  done;
  (* Warm checkpoint: seeds the segment cache so the loop below measures
     steady state (one dirty bucket per cycle), not the initial full
     sweep. *)
  Tyche.Monitor.checkpoint m;
  let snap_seg_bytes () =
    String.length (Persist.Store.read store Persist.Store.snap_blob)
    + String.length (Persist.Store.read store Persist.Store.seg_blob)
  in
  (* Bytes: one mutate+checkpoint cycle, measured before the pause loop
     so segment GC churn cannot land inside the window. *)
  share_one ();
  let b0 = snap_seg_bytes () in
  Tyche.Monitor.checkpoint m;
  let incr_bytes = float_of_int (snap_seg_bytes () - b0) in
  (* Pause comparison: wall time over *equal-length windows*, min over
     windows. bench-smoke runs under `dune runtest` next to other test
     binaries, and preemption taxes a short section proportionally more
     than a long one — timing single sub-ms checkpoints against ~15 ms
     cold ones deflates the ratio on a busy machine. A window of 10
     mutate+checkpoint cycles is the same order of wall length as one
     cold checkpoint, so ambient load inflates both sides alike and
     cancels; the min then picks each side's calmest window. The
     share_one inside the window costs ~3 µs against a sub-ms
     checkpoint — noise. (CPU time is no alternative: the cold
     checkpoint's allocation burst spends a large fraction of its pause
     in kernel time that Sys.time does not see.) *)
  let ckpt_blocks = if smoke then 4 else 8 in
  let cycles_per_block = 10 in
  let incr_pause_ns =
    let best = ref infinity in
    for _ = 1 to ckpt_blocks do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to cycles_per_block do
        share_one ();
        Tyche.Monitor.checkpoint m
      done;
      let dt = (Unix.gettimeofday () -. t0) /. float_of_int cycles_per_block in
      if dt < !best then best := dt
    done;
    !best *. 1e9
  in
  (* Re-arming persistence on an empty store takes a cold checkpoint. *)
  let cold_iters = if smoke then 4 else 10 in
  let cold_bytes = ref 0 in
  let cold_pause_ns =
    let best = ref infinity in
    for _ = 1 to cold_iters do
      let fresh = Persist.Store.mem () in
      let t0 = Unix.gettimeofday () in
      Tyche.Monitor.enable_persistence m ~store:fresh ~snapshot_every:max_int ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      cold_bytes :=
        String.length (Persist.Store.read fresh Persist.Store.snap_blob)
        + String.length (Persist.Store.read fresh Persist.Store.seg_blob)
    done;
    !best *. 1e9
  in
  let cold_bytes = float_of_int !cold_bytes in
  add n_ops "e18 ckpt pause@10k" ~fast:incr_pause_ns ~baseline:cold_pause_ns
    (Printf.sprintf "vs %.0f ns cold checkpoint, %.1fx smaller" cold_pause_ns
       (cold_pause_ns /. incr_pause_ns));
  add n_ops "e18 ckpt bytes@10k" ~fast:incr_bytes ~baseline:cold_bytes
    (Printf.sprintf "%.0f B incremental vs %.0f B cold, %.1fx smaller" incr_bytes cold_bytes
       (cold_bytes /. incr_bytes));
  List.rev !rows

(* E18 revoke cascade: one parent share with [fanout] one-page
   sub-shares hanging off it, revoked in one call. Two spreads: the
   children go to seven domains in turn, or all to one domain (the
   shape where each victim used to rescan and rewrite its domain's
   remaining holdings). Per victim: wall ns (informational), simulated
   cycles, and words allocated ([Gc.minor_words], exact on OCaml 5.1
   where [Gc.counters] counts the current minor heap one eighth, plus
   the words allocated straight into the major heap), the count that
   repeats exactly, whether or not a collection lands in the window,
   and that bench-smoke holds flat in fanout. Rows: "e18 revoke
   cascade fanout=N" (seven domains) and "... fanout=N one-domain", ns
   per revoke. *)
type cascade = { c_domains : int; c_fanout : int; c_words : float }

let e18_cascade ?(smoke = false) () =
  if smoke then header "E18: revoke cascade per victim [smoke]"
  else header "E18: revoke cascade per victim — seven domains vs one";
  let w = boot ~mem_size:(128 * 1024 * 1024) () in
  let m = w.monitor in
  let big = os_memory_cap w in
  let peers =
    Array.init 8 (fun i ->
        ok
          (Tyche.Monitor.create_domain m ~caller:os ~name:(Printf.sprintf "v%d" i)
             ~kind:Tyche.Domain.Sandbox))
  in
  let first_base = 0x400000 in
  let next_base = ref first_base in
  let window_limit =
    match Cap.Captree.resource (Tyche.Monitor.tree m) big with
    | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.limit r
    | _ -> failwith "e18: domain 0's largest capability is not memory"
  in
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let fanouts = if smoke then [ 10; 100 ] else [ 10; 100; 1000; 10_000 ] in
  let rows = ref [] and shapes = ref [] in
  (* The words are exact whether or not a collection lands in a window;
     the wall column is not, since a minor collection inside the window
     charges the revoke with promoting what is live. So empty the minor
     heap before each window and make it big enough for the largest
     cascade: 8 MiB for fanout 100, 64 MiB for fanout 10k. *)
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = (if smoke then 1 lsl 20 else 1 lsl 23) };
  Fun.protect ~finally:(fun () -> Gc.set gc) @@ fun () ->
  List.iter
    (fun domains ->
      List.iter
        (fun fanout ->
          let iters =
            if smoke then 5 else if fanout >= 10_000 then 2 else if fanout >= 1000 then 5 else 20
          in
          let victims = fanout + 1 in
          let total = ref 0.0 and min_words = ref infinity and cycles = ref 0 in
          for _ = 1 to iters do
            (* Every earlier parent share is revoked by now, so its range
               is free again: wrap when the address window runs out. *)
            if !next_base + (victims * page) > window_limit then next_base := first_base;
            let base = !next_base in
            next_base := base + (victims * page);
            let parent =
              ok
                (Tyche.Monitor.share m ~caller:os ~cap:big ~to_:peers.(0) ~rights:Cap.Rights.rw
                   ~cleanup:Cap.Revocation.Keep ~subrange:(range ~base ~len:(victims * page)) ())
            in
            for k = 0 to fanout - 1 do
              ignore
                (ok
                   (Tyche.Monitor.share m ~caller:peers.(0) ~cap:parent
                      ~to_:peers.(1 + (k mod domains)) ~rights:Cap.Rights.read_only
                      ~cleanup:Cap.Revocation.Keep
                      ~subrange:(range ~base:(base + (k * page)) ~len:page) ()))
            done;
            Gc.minor ();
            let c0 = Hw.Machine.cycles w.machine in
            let w0 = words () in
            let t0 = Unix.gettimeofday () in
            ok (Tyche.Monitor.revoke m ~caller:os ~cap:parent);
            let dt = Unix.gettimeofday () -. t0 in
            min_words := Float.min !min_words (words () -. w0);
            cycles := Hw.Machine.cycles w.machine - c0;
            total := !total +. dt
          done;
          let ns = !total /. float_of_int iters *. 1e9 in
          let per_victim = !min_words /. float_of_int victims in
          let op =
            Printf.sprintf "e18 revoke cascade fanout=%d%s" fanout
              (if domains = 1 then " one-domain" else "")
          in
          rows := { size = fanout; op; indexed_ns = ns; reference_ns = Float.nan } :: !rows;
          shapes := { c_domains = domains; c_fanout = fanout; c_words = per_victim } :: !shapes;
          row3 op
            (Printf.sprintf "%.0f ns/op" ns)
            (Printf.sprintf "%.0f ns, %d cycles, %.0f words per victim (%d victims)"
               (ns /. float_of_int victims) (!cycles / victims) per_victim victims))
        fanouts)
    [ 7; 1 ];
  (List.rev !rows, List.rev !shapes)

(* O(victims) revocation, gated on a deterministic count: words
   allocated per victim at fanout 100 may be at most this multiple of
   the fanout-10 figure, in both spreads. A per-victim rescan of the
   domain's holdings makes the one-domain spread grow linearly. *)
let e18_words_ceiling = 1.5

(* Floors for the E18 ratios (same busy-CI discipline as {!e16_floor}):
   - group commit: 64 records per fsync amortizes the dominant barrier
     cost; healthy runs sit far above 10x on a real filesystem, so 5x
     only trips if batching stops deferring the fsync.
   - ckpt pause: steady state re-serializes one dirty 64-id bucket out
     of ~160; the cold checkpoint serializes every bucket. The
     acceptance target is >= 10x smaller at 10k caps; smoke runs the
     same 10k world with fewer timed iterations, so the floor guards
     the real acceptance point.
   - ckpt bytes: one manifest + one segment vs the manifest and every
     segment. The manifest's (bucket, hash) table keeps the ratio lower
     than the pause ratio; 5x holds from 1k caps up. *)
let e18_floor op =
  if op = "e18 group commit(64) file store" then Some 5.0
  else if op = "e18 ckpt pause@10k" then Some 10.0
  else if op = "e18 ckpt bytes@10k" then Some 5.0
  else None

(* --- share+revoke scaling (the superlinearity regression) ---------------- *)

(* One share+revoke pair against trees of 1k/10k/50k caps. Before the
   captree kept its children in an indexed set, the revoke's sibling
   unlink was O(children-of-root), so the *per-op* time grew with tree
   size (7.6 us at 1k -> 88 us at 10k). With the fix the pair is
   near-flat; the smoke gate bounds the 50k/1k per-op ratio so the
   O(n) component cannot silently return. *)
let capops_scaling ?(smoke = false) () =
  if smoke then header "E5b: share+revoke per-op scaling [smoke]"
  else header "E5b: share+revoke per-op scaling";
  let iters = if smoke then 300 else 2000 in
  let timed ~n f =
    if not smoke then timed_loop ~n f
    else List.fold_left (fun best _ -> Float.min best (timed_loop ~n f)) infinity [ 1; 2; 3 ]
  in
  List.map
    (fun n ->
      let t, root = build_tree n in
      let pair () =
        let id, _ =
          Result.get_ok
            (Cap.Captree.share t root ~to_:9 ~rights:Cap.Rights.rw
               ~cleanup:Cap.Revocation.Keep ~subrange:(range ~base:0 ~len:page) ())
        in
        ignore (Result.get_ok (Cap.Captree.revoke t id))
      in
      let ns = timed ~n:iters pair in
      row3
        (Printf.sprintf "share+revoke scaling (%d caps)" n)
        (Printf.sprintf "%.0f ns/op" ns) "per-op, must stay flat";
      { size = n; op = "share+revoke scaling"; indexed_ns = ns; reference_ns = nan })
    [ 1000; 10_000; 50_000 ]

(* Per-op time at 50k caps may exceed 1k caps by at most this factor.
   A healthy indexed tree sits near 1x (cache effects only); the old
   O(n) sibling unlink sat above 10x. *)
let scaling_ceiling = 4.0

(* --- E19: parallel aggregate throughput over shards ----------------------- *)

(* The sharded federation under worker parallelism: [w] OCaml Domains,
   each hammering its own shard's capability tree through the global
   API (share+revoke of a one-page subrange — the same pair as E5b).
   Reported as aggregate wall-clock ns per op; the JSON speedup column
   reads (1-domain ns / N-domain ns), i.e. aggregate-throughput
   scaling. Tracing is disabled during the timed window so the ring
   buffer's contention is not what gets measured. *)
let boot_sharded_bench ~shards ?(cores = 1) ?(mem_size = 8 * 1024 * 1024)
    ?(seed = 0x99L) () =
  let rng = Crypto.Rng.create ~seed in
  let mk ~shard =
    let machine = Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores ~mem_size () in
    let srng = Crypto.Rng.create ~seed:(Int64.add seed (Int64.of_int (shard * 7919))) in
    let tpm = Rot.Tpm.create srng in
    let report =
      Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image
    in
    (machine, Backend_x86.create machine (), tpm, srng, report.Rot.Boot.monitor_range)
  in
  Tyche.Sharded.boot ~shards ~rng ~mk ()

let sharded_mem_cap t ~shard =
  let m = Tyche.Sharded.shard_monitor t shard in
  let tree = Tyche.Monitor.tree m in
  let size cap =
    match Cap.Captree.resource tree cap with
    | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.len r
    | _ -> 0
  in
  match Tyche.Monitor.caps_of m os with
  | [] -> failwith "shard OS holds no caps"
  | caps ->
    Tyche.Sharded.gcap ~shard
      (List.fold_left (fun best c -> if size c > size best then c else best) (List.hd caps) caps)

let e19 ?(smoke = false) () =
  if smoke then header "E19: parallel aggregate throughput over shards [smoke]"
  else header "E19: parallel aggregate throughput over shards";
  let iters = if smoke then 1500 else 20_000 in
  let widths = if smoke then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let measure_once w =
    let t = boot_sharded_bench ~shards:w () in
    let d =
      match Testkit.fed t (Tyche.Api.Create_domain { name = "e19"; kind = Tyche.Domain.Sandbox }) with
      | Ok (Tyche.Api.R_domain d) -> d
      | r -> failwith (Format.asprintf "e19: %a" Tyche.Api.pp_response r)
    in
    let stride = Tyche.Sharded.addr_stride in
    (* One share+revoke pair of a one-page subrange of [cap]. *)
    let pair cap sub =
      match
        Testkit.fed t
          (Tyche.Api.Share
             { cap; to_ = d; rights = Cap.Rights.rw; cleanup = Cap.Revocation.Keep;
               subrange = Some sub })
      with
      | Ok (Tyche.Api.R_cap c) -> ignore (ok (Testkit.fed t (Tyche.Api.Revoke { cap = c })))
      | r -> failwith (Format.asprintf "e19 worker: %a" Tyche.Api.pp_response r)
    in
    let worker shard () =
      let cap = sharded_mem_cap t ~shard in
      for i = 0 to iters - 1 do
        pair cap (range ~base:((shard * stride) + ((i mod 1024) * page)) ~len:page)
      done
    in
    (* Warm one pair per shard outside the timed window. *)
    for s = 0 to w - 1 do
      pair (sharded_mem_cap t ~shard:s) (range ~base:((s * stride) + (2000 * page)) ~len:page)
    done;
    let was_tracing = Obs.enabled () in
    Obs.set_enabled false;
    let start = Unix.gettimeofday () in
    let spawned = List.init w (fun s -> Stdlib.Domain.spawn (worker s)) in
    List.iter Stdlib.Domain.join spawned;
    let wall = Unix.gettimeofday () -. start in
    Obs.set_enabled was_tracing;
    let total_ops = w * iters * 2 in
    wall /. float_of_int total_ops *. 1e9
  in
  (* Smoke gates on the ratio, and a single short parallel window is
     at the mercy of where the stop-the-world minor-GC barriers land —
     best-of-2 on both sides keeps the gate's variance down. *)
  let measure w =
    if not smoke then measure_once w
    else Float.min (measure_once w) (measure_once w)
  in
  let ns1 = measure 1 in
  List.map
    (fun w ->
      let ns = if w = 1 then ns1 else measure w in
      row3
        (Printf.sprintf "e19 parallel capops @%d domains" w)
        (Printf.sprintf "%.0f ns/op" ns)
        (Printf.sprintf "aggregate, %.2fx vs 1 domain" (ns1 /. ns));
      { size = w;
        op = Printf.sprintf "e19 parallel capops @%dD" w;
        indexed_ns = ns;
        reference_ns = (if w = 1 then nan else ns1) })
    widths

(* The acceptance target (>= 2.5x aggregate at 4 domains) only means
   something with >= 4 hardware threads. On smaller boxes the measured
   ratio is dominated by where the stop-the-world minor-GC barriers
   happen to land (observed 0.26x-1.65x across back-to-back runs on
   one CPU), so no numeric floor separates "GC barriers" from
   "contended locks" reliably; there the gate degrades to the
   correctness bound the harness already enforces — every worker op
   must succeed and the run must terminate (a wedged lock hangs or
   errors) — and the ratio is printed for information only. *)
let e19_speedup_floor = 2.5

(* Two fleet endpoints on a loss-free link, monitor persistence on in
   both (fsync every op). [outbox] journals the fleet in the store too;
   [wrap] sees every store the pair writes. *)
let e20_pair ?(wrap = Fun.id) ~outbox () =
  let net = Distributed.Network.create () in
  let wa = boot ~seed:0x20AL () in
  let wb = boot ~seed:0x20BL () in
  let attach w name =
    let store = wrap (Persist.Store.mem ()) in
    Tyche.Monitor.enable_persistence w.monitor ~store ~snapshot_every:max_int ~fsync_every:1 ();
    if outbox then Distributed.Fleet.create ~store ~monitor:w.monitor ~name ~net ()
    else Distributed.Fleet.create ~monitor:w.monitor ~name ~net ()
  in
  let fa = attach wa "alpha" in
  let fb = attach wb "beta" in
  let key = "e20-fleet-session-key-0123456789" in
  let conn f ~peer =
    match Distributed.Fleet.connect f ~peer ~key with
    | Ok _ -> ()
    | Error e -> failwith ("e20 connect: " ^ Distributed.Fleet.error_to_string e)
  in
  conn fa ~peer:"beta";
  conn fb ~peer:"alpha";
  (wa, fa, fb)

let e20_pump fa fb =
  let idle () = Distributed.Fleet.idle fa && Distributed.Fleet.idle fb in
  ignore (Distributed.Fleet.poll fb);
  ignore (Distributed.Fleet.poll fa);
  let rounds = ref 0 in
  while (not (idle ())) && !rounds < 64 do
    incr rounds;
    Distributed.Fleet.tick fa;
    Distributed.Fleet.tick fb;
    ignore (Distributed.Fleet.poll fb);
    ignore (Distributed.Fleet.poll fa)
  done;
  if not (idle ()) then failwith "e20: no convergence on a loss-free link"

(* E20: cross-machine delegation (fleet) costs. Two absolute rows plus
   one ratio gate:
   - delegate round-trip: Fleet.delegate on alpha, pump the (loss-free)
     link until beta's import lands and the cumulative ack returns;
   - revoke convergence: Fleet.revoke of a delegated page, pump until
     the peer drops the import, acks, and the local cascade runs;
   - outbox overhead: the full delegate+revoke pair with the fleet
     outbox journaled in the store's "fleet" blob vs the same pair with
     a volatile outbox (no Fleet store), monitor persistence on in both
     — isolating what journal-then-ack adds on top of the already
     journaled monitor ops and the two HMACs per message. *)
let e20 ?(smoke = false) () =
  if smoke then header "E20: cross-machine delegation [smoke]"
  else header "E20: cross-machine delegation (round-trip, revoke convergence, outbox overhead)";
  let n = if smoke then 150 else 2_000 in
  let reps = 3 in
  let measure ~outbox =
    let wa, fa, fb = e20_pair ~outbox () in
    let pump () = e20_pump fa fb in
    let big = os_memory_cap wa in
    let slot = ref 0 in
    let delegate_rt () =
      (* 1024 distinct page slots, reused round-robin: live delegations
         of the same page coexist fine (independent proxy caps), and the
         revoke phase below retires them one by one. *)
      let base = 0x400000 + (!slot mod 1024 * page) in
      incr slot;
      match
        Distributed.Fleet.delegate fa ~caller:os ~cap:big ~peer:"beta"
          ~subrange:(range ~base ~len:page) ~rights:Cap.Rights.rw ()
      with
      | Error e -> failwith ("e20 delegate: " ^ Distributed.Fleet.error_to_string e)
      | Ok _ -> pump ()
    in
    let rt = timed_loop ~n delegate_rt in
    (* Everything delegated above (timed and warm-up alike) is now live;
       the revoke loop drains exactly that backlog, topping up on the
       fly if the loop's warm-up count ever changes. *)
    let retired = Queue.create () in
    List.iter
      (fun d -> Queue.add d.Distributed.Fleet.proxy_cap retired)
      (Distributed.Fleet.delegations fa);
    let revoke_conv () =
      let cap =
        match Queue.take_opt retired with
        | Some c -> c
        | None ->
          delegate_rt ();
          (match Distributed.Fleet.delegations fa with
          | d :: _ -> d.Distributed.Fleet.proxy_cap
          | [] -> failwith "e20: no delegation left to revoke")
      in
      match Distributed.Fleet.revoke fa ~caller:os ~cap with
      | Error e -> failwith ("e20 revoke: " ^ Distributed.Fleet.error_to_string e)
      | Ok () -> pump ()
    in
    let rv = timed_loop ~n revoke_conv in
    (rt, rv)
  in
  (* The gate is a ratio and the per-measure window is short (a few ms
     at smoke sizes), so scheduling noise does not hit paired runs
     alike — instead take the min of several samples on *both* sides
     (the E18 trick): noise only ever inflates a sample, so min-vs-min
     compares the two configurations' true costs. *)
  let d_samples = ref [] and v_samples = ref [] in
  let round () =
    for _ = 1 to reps do
      v_samples := measure ~outbox:false :: !v_samples;
      d_samples := measure ~outbox:true :: !d_samples
    done
  in
  let best samples =
    List.fold_left
      (fun (brt, brv) (rt, rv) ->
        if rt +. rv < brt +. brv then (rt, rv) else (brt, brv))
      (infinity, infinity) !samples
  in
  let ratio () =
    let d_rt, d_rv = best d_samples and v_rt, v_rv = best v_samples in
    (d_rt +. d_rv) /. (v_rt +. v_rv)
  in
  round ();
  let attempts = ref 1 in
  while ratio () > 1.15 && !attempts < 3 do
    incr attempts;
    round ()
  done;
  let d_rt, d_rv = best d_samples and v_rt, v_rv = best v_samples in
  row3 "e20 delegate round-trip" (Printf.sprintf "%.0f ns/op" d_rt)
    "share+freeze+wire+journal, acked";
  row3 "e20 revoke convergence" (Printf.sprintf "%.0f ns/op" d_rv)
    "remote unimport acked, local cascade";
  row3 "e20 outbox overhead, pair"
    (Printf.sprintf "%.2fx" ((d_rt +. d_rv) /. (v_rt +. v_rv)))
    (Printf.sprintf "journaled %.0f ns vs volatile %.0f ns" (d_rt +. d_rv) (v_rt +. v_rv));
  [ { size = n; op = "e20 delegate round-trip"; indexed_ns = d_rt; reference_ns = nan };
    { size = n; op = "e20 revoke convergence"; indexed_ns = d_rv; reference_ns = nan };
    { size = n; op = "e20 outbox journal, delegate+revoke pair";
      indexed_ns = d_rt +. d_rv; reference_ns = v_rt +. v_rv } ]

(* Ceiling for the E20 ratio: the distributed contract (DESIGN.md §12)
   prices the durable outbox at <= 1.2x over a volatile one on the full
   delegate+revoke pair — the full-scale run measures 1.09x
   (BENCH_capops.json). The pair already pays the monitor's own WAL
   records plus four HMACs of wire traffic; the fleet journal adds a
   handful of ~20-byte appends and mem-store fsyncs. The smoke gate
   sits above the contract (same reasoning as the journaled-rows gate
   in capops_smoke): smoke's few-ms windows on a loaded 1-CPU box
   jitter the ratio up to ~1.3 when a slow phase lands on the journaled
   side's extra allocation, while an actually pathological outbox —
   fsyncing the whole blob per record, per-message allocation storms —
   lands at >= 2x. The gate runs in `@perf`; bench-smoke gates
   {!e20_twin} instead. *)
let e20_ceiling op =
  if op = "e20 outbox journal, delegate+revoke pair" then Some 1.5 else None

(* E20's deterministic twin: durability barriers and journal bytes per
   delegate+revoke pair on the same loss-free link, counted through a
   wrapper around both endpoints' stores (a [Store.t] is a record of
   closures). Journal-then-ack pays one fleet barrier per record a
   message or an ack depends on — [J_delegate], [J_import], [J_pending],
   [J_unimport] — and the monitor one WAL barrier each for the share and
   the local revoke. The reference is the pair's journal records, what
   an outbox that fsyncs every record would pay. Compaction is left out:
   the loss-free pump never ticks, and a compaction is one [replace],
   no append and no barrier. *)
let e20_twin_pairs = 64

let e20_twin () =
  header "E20 twin: barriers and journal bytes per delegate+revoke pair";
  let fleet_syncs = ref 0 and wal_syncs = ref 0 and records = ref 0 and bytes = ref 0 in
  let wrap inner =
    { inner with
      Persist.Store.append =
        (fun blob data ->
          if blob = "fleet" then begin
            incr records;
            bytes := !bytes + String.length data
          end;
          inner.Persist.Store.append blob data);
      fsync =
        (fun blob ->
          if blob = "fleet" then incr fleet_syncs
          else if blob = Persist.Store.wal_blob then incr wal_syncs;
          inner.Persist.Store.fsync blob) }
  in
  let wa, fa, fb = e20_pair ~wrap ~outbox:true () in
  let big = os_memory_cap wa in
  let pair i =
    (match
       Distributed.Fleet.delegate fa ~caller:os ~cap:big ~peer:"beta"
         ~subrange:(range ~base:(0x400000 + (i * page)) ~len:page)
         ~rights:Cap.Rights.rw ()
     with
    | Ok _ -> e20_pump fa fb
    | Error e -> failwith ("e20 twin delegate: " ^ Distributed.Fleet.error_to_string e));
    match Distributed.Fleet.delegations fa with
    | [ d ] -> (
      match Distributed.Fleet.revoke fa ~caller:os ~cap:d.Distributed.Fleet.proxy_cap with
      | Ok () -> e20_pump fa fb
      | Error e -> failwith ("e20 twin revoke: " ^ Distributed.Fleet.error_to_string e))
    | _ -> failwith "e20 twin: expected exactly one live delegation"
  in
  List.iter (fun r -> r := 0) [ fleet_syncs; wal_syncs; records; bytes ];
  for i = 1 to e20_twin_pairs do
    pair i
  done;
  let per r = float_of_int !r /. float_of_int e20_twin_pairs in
  let rows =
    [ { size = e20_twin_pairs; op = "e20 twin fleet barriers per pair";
        indexed_ns = per fleet_syncs; reference_ns = per records };
      { size = e20_twin_pairs; op = "e20 twin WAL barriers per pair";
        indexed_ns = per wal_syncs; reference_ns = nan };
      { size = e20_twin_pairs; op = "e20 twin journal bytes per pair";
        indexed_ns = per bytes; reference_ns = nan } ]
  in
  row3 "e20 twin fleet barriers per pair" (Printf.sprintf "%.2f" (per fleet_syncs))
    (Printf.sprintf "vs %.2f journal records" (per records));
  row3 "e20 twin WAL barriers per pair" (Printf.sprintf "%.2f" (per wal_syncs)) "";
  row3 "e20 twin journal bytes per pair" (Printf.sprintf "%.1f B" (per bytes)) "";
  rows

(* Bounds for the twin. Barriers are exact both ways: one more is the
   fsync-per-record outbox the wall gate was meant to catch (6 fleet
   barriers a pair), one fewer is a message or an ack leaving before
   its record is durable. The journal bytes are the pair's six
   records, framed, on average over the 64 pairs: J_delegate 23.1,
   J_import 22.5, J_pending 18.1, J_unimport 15.5 and two J_acked of
   14.0, 107.36 B in all. *)
let e20_twin_failure r =
  let exact n =
    if r.indexed_ns = n then None
    else Some (Printf.sprintf "%s: %.2f (<> %.0f)" r.op r.indexed_ns n)
  in
  match r.op with
  | "e20 twin fleet barriers per pair" -> exact 4.
  | "e20 twin WAL barriers per pair" -> exact 2.
  | "e20 twin journal bytes per pair" when r.indexed_ns > 107.4 ->
    Some (Printf.sprintf "%s: %.2f B (> 107.4 B)" r.op r.indexed_ns)
  | _ -> None

(* --- E21: live domain migration ------------------------------------------ *)

(* Three costs of Distributed.Migrate (DESIGN.md section 13):
   - migrate round-trip: full offer/stream/adopt/receipt/commit of a
     small sealed enclave on a loss-free link, ns per migration;
   - crash-resume: the same migration with the source power-failed and
     recovered (monitor + fleet + migration journal replay) mid-stream,
     vs the clean run — informational, the ratio is dominated by
     monitor recovery, not by the migration protocol;
   - incremental transfer: bytes on the wire for a mostly-zero domain
     vs the full-snapshot baseline (every page shipped once). The
     content-addressed chunk store sends each distinct page once, so
     the wire cost scales with distinct content, not domain size. *)

type mig_node = {
  mn_name : string;
  mn_store : Persist.Store.t;
  mutable mn_monitor : Tyche.Monitor.t;
  mutable mn_fleet : Distributed.Fleet.t;
  mutable mn_mig : Distributed.Migrate.t;
}

let e21_key = "e21-migrate-session-key-01234567"

let e21_connect a b =
  let conn f ~peer =
    match Distributed.Fleet.connect f ~peer ~key:e21_key with
    | Ok _ -> ()
    | Error e -> failwith ("e21 connect: " ^ Distributed.Fleet.error_to_string e)
  in
  conn a.mn_fleet ~peer:b.mn_name;
  conn b.mn_fleet ~peer:a.mn_name;
  Distributed.Migrate.set_peer_root a.mn_mig ~peer:b.mn_name
    (Tyche.Monitor.attestation_root b.mn_monitor);
  Distributed.Migrate.set_peer_root b.mn_mig ~peer:a.mn_name
    (Tyche.Monitor.attestation_root a.mn_monitor)

let e21_node net ~mem_size name seed =
  (* Every migration spends monitor attestation signatures (the manifest
     binds a fresh batch-attest root); the default 2^6 signer runs dry
     under the 100-transfer wall loop. *)
  let w = boot ~mem_size ~seed ~signer_height:10 () in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let fleet = Distributed.Fleet.create ~store ~monitor:w.monitor ~name ~net () in
  let mig = Distributed.Migrate.attach ~fleet ~store in
  { mn_name = name; mn_store = store; mn_monitor = w.monitor; mn_fleet = fleet;
    mn_mig = mig }

let e21_pair ?(mem_size = 32 * 1024 * 1024) () =
  let net = Distributed.Network.create () in
  let a = e21_node net ~mem_size "alpha" 0x21AL in
  let b = e21_node net ~mem_size "beta" 0x21BL in
  e21_connect a b;
  (net, a, b)

(* Crash-restart of one endpoint: power failure drops unsynced bytes,
   then monitor recovery from the store and re-attachment of the fleet
   and migration journals, exactly as the chaos driver does it. *)
let e21_recover net ~mem_size node =
  Persist.Store.power_fail node.mn_store;
  let machine = Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores:4 ~mem_size () in
  let rng = Crypto.Rng.create ~seed:0x99L in
  let tpm = Rot.Tpm.create rng in
  let br =
    Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image
  in
  let backend = Backend_x86.create machine () in
  match
    Tyche.Monitor.recover machine ~store:node.mn_store ~backend ~tpm ~rng
      ~monitor_range:br.Rot.Boot.monitor_range
  with
  | Error e -> failwith ("e21 recovery: " ^ e)
  | Ok (m, _) ->
    node.mn_monitor <- m;
    node.mn_fleet <-
      Distributed.Fleet.create ~store:node.mn_store ~monitor:m ~name:node.mn_name ~net ();
    node.mn_mig <- Distributed.Migrate.attach ~fleet:node.mn_fleet ~store:node.mn_store

let e21_os_cap_over m sub =
  let tree = Tyche.Monitor.tree m in
  match
    List.find_opt
      (fun c ->
        match Cap.Captree.resource tree c with
        | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.includes ~outer:r ~inner:sub
        | _ -> false)
      (Tyche.Monitor.caps_of m os)
  with
  | Some c -> c
  | None -> failwith "e21: no os cap over the enclave range"

(* Sealed, measured enclave with [distinct] content pages; the rest of
   its [pages] stay zero so the chunk store can dedup them. *)
let e21_enclave node ~name ~base ~pages ~distinct =
  let m = node.mn_monitor in
  let d = ok (Tyche.Monitor.create_domain m ~caller:os ~name ~kind:Tyche.Domain.Enclave) in
  let sub = range ~base ~len:(pages * page) in
  let piece = ok (Tyche.Monitor.carve m ~caller:os ~cap:(e21_os_cap_over m sub) ~subrange:sub) in
  for i = 0 to distinct - 1 do
    ok (Tyche.Monitor.store_string m ~core:0 (base + (i * page)) (Printf.sprintf "%s-%04d" name i))
  done;
  ignore
    (ok
       (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:d ~rights:Cap.Rights.full
          ~cleanup:Cap.Revocation.Zero_and_flush));
  ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:d base);
  ok (Tyche.Monitor.mark_measured m ~caller:os ~domain:d sub);
  ok (Tyche.Monitor.seal m ~caller:os ~domain:d);
  d

let e21_pump ?(max_rounds = 1024) nodes =
  let idle () =
    List.for_all
      (fun n -> Distributed.Fleet.idle n.mn_fleet && Distributed.Migrate.idle n.mn_mig)
      nodes
  in
  let rounds = ref 0 in
  while (not (idle ())) && !rounds < max_rounds do
    incr rounds;
    List.iter
      (fun n ->
        Distributed.Fleet.tick n.mn_fleet;
        ignore (Distributed.Fleet.poll n.mn_fleet);
        Distributed.Migrate.tick n.mn_mig)
      nodes
  done;
  if not (idle ()) then failwith "e21: no convergence on a loss-free link"

let e21_committed node ~mig what =
  match Distributed.Migrate.status node.mn_mig ~mig with
  | Some (Distributed.Migrate.Source, Distributed.Migrate.Committed) -> ()
  | Some (_, ph) ->
    failwith
      (Printf.sprintf "e21 %s: source ended %s" what
         (Format.asprintf "%a" Distributed.Migrate.pp_phase ph))
  | None -> failwith ("e21 " ^ what ^ ": migration vanished")

let e21 ?(smoke = false) () =
  if smoke then header "E21: live domain migration [smoke]"
  else header "E21: live domain migration (round-trip, crash-resume, incremental transfer)";
  let pages_wall = if smoke then 4 else 16 in
  let n = if smoke then 8 else 100 in
  (* Round-trip: prebuild the enclaves, time only start -> terminal. *)
  let wall =
    let _, a, b = e21_pair () in
    let doms =
      List.init n (fun i ->
          e21_enclave a
            ~name:(Printf.sprintf "e21w-%03d" i)
            ~base:(0x400000 + (i * pages_wall * page))
            ~pages:pages_wall ~distinct:(pages_wall / 2))
    in
    let migrate d =
      let mig =
        match Distributed.Migrate.start a.mn_mig ~domain:d ~peer:"beta" with
        | Ok m -> m
        | Error e -> failwith ("e21 start: " ^ Distributed.Migrate.error_to_string e)
      in
      e21_pump [ a; b ];
      e21_committed a ~mig "round-trip"
    in
    let t0 = Unix.gettimeofday () in
    List.iter migrate doms;
    (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9
  in
  (* Crash-resume: one clean migration vs one with the source power-
     failed and recovered mid-stream, best-of-reps on both sides. *)
  let pages_resume = 8 in
  let reps = if smoke then 2 else 3 in
  let clean_once () =
    let _, a, b = e21_pair () in
    let d = e21_enclave a ~name:"e21c" ~base:0x400000 ~pages:pages_resume ~distinct:4 in
    let t0 = Unix.gettimeofday () in
    let mig = ok_str (Result.map_error Distributed.Migrate.error_to_string
                        (Distributed.Migrate.start a.mn_mig ~domain:d ~peer:"beta")) in
    e21_pump [ a; b ];
    e21_committed a ~mig "clean";
    (Unix.gettimeofday () -. t0) *. 1e9
  in
  let resumed_once () =
    let net, a, b = e21_pair () in
    let d = e21_enclave a ~name:"e21r" ~base:0x400000 ~pages:pages_resume ~distinct:4 in
    let t0 = Unix.gettimeofday () in
    let mig = ok_str (Result.map_error Distributed.Migrate.error_to_string
                        (Distributed.Migrate.start a.mn_mig ~domain:d ~peer:"beta")) in
    (* Two pump rounds leave the stream mid-flight, then pull the plug. *)
    for _ = 1 to 2 do
      List.iter
        (fun nd ->
          Distributed.Fleet.tick nd.mn_fleet;
          ignore (Distributed.Fleet.poll nd.mn_fleet);
          Distributed.Migrate.tick nd.mn_mig)
        [ a; b ]
    done;
    e21_recover net ~mem_size:(32 * 1024 * 1024) a;
    e21_connect a b;
    e21_pump [ a; b ];
    e21_committed a ~mig "resume";
    (Unix.gettimeofday () -. t0) *. 1e9
  in
  let best f = List.fold_left (fun acc _ -> Float.min acc (f ())) infinity (List.init reps Fun.id) in
  let clean_ns = best clean_once in
  let resumed_ns = best resumed_once in
  (* Incremental transfer: mostly-zero domain, wire bytes vs shipping
     every page (the full-snapshot baseline). *)
  (* Fixed per-page wire overheads (offer/need hash lists, manifest
     entries, frame sealing) dominate tiny domains, so the smoke size
     stays large enough for page content to dominate the ratio. *)
  let k = if smoke then 256 else 10_000 in
  let distinct = if smoke then 8 else 16 in
  let big_mem = if smoke then 32 * 1024 * 1024 else 96 * 1024 * 1024 in
  let wire, full =
    let net, a, b = e21_pair ~mem_size:big_mem () in
    let d = e21_enclave a ~name:"e21big" ~base:0x400000 ~pages:k ~distinct in
    let b0 = Distributed.Network.total_bytes net in
    let mig = ok_str (Result.map_error Distributed.Migrate.error_to_string
                        (Distributed.Migrate.start a.mn_mig ~domain:d ~peer:"beta")) in
    e21_pump [ a; b ];
    e21_committed a ~mig "incremental";
    (float_of_int (Distributed.Network.total_bytes net - b0), float_of_int (k * page))
  in
  row3 "e21 migrate round-trip" (Printf.sprintf "%.0f ns/op" wall)
    (Printf.sprintf "%d-page enclave, offer to live" pages_wall);
  row3 "e21 crash-resume migration"
    (Printf.sprintf "%.2fx" (resumed_ns /. clean_ns))
    (Printf.sprintf "resumed %.0f us vs clean %.0f us (monitor recovery included)"
       (resumed_ns /. 1e3) (clean_ns /. 1e3));
  row3 "e21 incremental transfer"
    (Printf.sprintf "%.1fx smaller" (full /. wire))
    (Printf.sprintf "%.0f KiB wire vs %.0f KiB full snapshot, %d pages %d distinct"
       (wire /. 1024.) (full /. 1024.) k distinct);
  [ { size = pages_wall; op = "e21 migrate round-trip"; indexed_ns = wall; reference_ns = nan };
    { size = pages_resume; op = "e21 crash-resume migration"; indexed_ns = resumed_ns;
      reference_ns = clean_ns };
    { size = k; op = "e21 incremental transfer bytes"; indexed_ns = wire; reference_ns = full } ]


(* E22: the byzantine domain-0 fuzzer as a measured experiment — how
   many hostile episodes the monitor survives, how many attacks it
   denies, and (the number that must stay zero) how many bugs the
   audits catch. Reuses the same engine as `dune build @byzantine`, so
   the JSON rows track the gate exactly. Units are counts, not ns
   (like E21's byte rows). *)
let e22 ?(smoke = false) () =
  if smoke then header "E22: byzantine domain-0 fuzzer [smoke]"
  else header "E22: byzantine domain-0 fuzzer (forged/stale handles, downgrades, squeezes)";
  let episodes = if smoke then 6 else 60 in
  let o = Byzkit.run ~seed:0xB12A ~episodes () in
  let bugs = List.length o.Byzkit.o_found in
  row3 "e22 byzantine episodes"
    (Printf.sprintf "%d eps / %d steps" o.Byzkit.o_episodes o.Byzkit.o_steps)
    "alternating x86/riscv, audit after every step";
  row3 "e22 byzantine attacks denied"
    (Printf.sprintf "%d/%d" o.Byzkit.o_denied o.Byzkit.o_attacks)
    "forge, stale-replay, recycled-id, refcount, circular, squeeze, wire, downgrade, splice, freeze";
  row3 "e22 byzantine bugs found" (string_of_int bugs)
    (if bugs = 0 then "invariants + fsck + obs + taint oracle all green"
     else String.concat " | " o.Byzkit.o_found);
  [ { size = o.Byzkit.o_episodes; op = "e22 byzantine episode steps";
      indexed_ns = float_of_int o.Byzkit.o_steps; reference_ns = nan };
    { size = o.Byzkit.o_attacks; op = "e22 byzantine attacks denied";
      indexed_ns = float_of_int o.Byzkit.o_denied;
      reference_ns = float_of_int o.Byzkit.o_attacks };
    { size = o.Byzkit.o_episodes; op = "e22 byzantine bugs found";
      indexed_ns = float_of_int bugs; reference_ns = nan } ]

(* The incremental floor: a content-addressed transfer of a mostly-zero
   domain must ship at least 3x fewer bytes than the full snapshot.
   Even at smoke sizes (64 pages, 8 distinct) a healthy dedup lands
   near 6x — the floor only trips when chunks stop deduplicating and
   every zero page rides the wire again. *)
let e21_incremental_floor = 3.0

(* Smoke mode (`bench-smoke` alias, run under `dune runtest`): tiny
   iteration counts, no JSON, but hard assertions — the indexed paths
   must beat the scans and the attestation bodies must agree, so an
   index regression fails CI fast. *)
let capops_smoke () =
  let rows, body_ok = capops ~smoke:true () in
  let failures = ref (if body_ok then [] else [ "attest body disagrees with reference" ]) in
  List.iter
    (fun r ->
      (* Attestation pays a constant signing cost on both sides, which
         compresses the ratio at smoke's tiny tree size — so its floor
         is lower. The floors are deliberately loose: a broken index
         lands at <= 1.0x (or fails the body check), while a healthy
         one clears 2x even on a loaded CI machine. *)
      if String.length r.op >= 9 && String.sub r.op 0 9 = "journaled" then begin
        (* Crash-consistency rows invert the ratio: indexed is the
           journaled pair, reference the plain pair. Since the indexed
           children set cut the plain pair to ~1.7 us, the roughly
           constant ~1 us of undo-closure journaling reads as up to
           ~1.6x at smoke's noisy tiny iteration counts (it was 1.02x
           against the old 7.6 us baseline) — that is the base op
           getting faster, not journaling getting slower. The ceiling
           only has to trip when journaling turns pathological
           (per-primitive allocation storms land at >= 4x). *)
        let ceiling = 2.5 in
        if r.indexed_ns /. r.reference_ns > ceiling then
          failures :=
            Printf.sprintf "%s at %d caps: %.0f ns journaled vs %.0f ns plain (> %.1fx)" r.op
              r.size r.indexed_ns r.reference_ns ceiling
            :: !failures
      end
      else begin
        let floor = if String.length r.op >= 6 && String.sub r.op 0 6 = "attest" then 1.2 else 1.5 in
        if (not (Float.is_nan r.reference_ns)) && r.reference_ns /. r.indexed_ns < floor then
          failures :=
            Printf.sprintf "%s at %d caps: %.0f ns indexed vs %.0f ns scan (< %.1fx)" r.op
              r.size r.indexed_ns r.reference_ns floor
            :: !failures
      end)
    rows;
  failures := List.filter_map e14_twin_failure (e14_twins ()) @ !failures;
  failures := List.filter_map e16_twin_failure (e16_twin ()) @ !failures;
  (* Its replayed-record counts are the gate; it fails on its own. *)
  ignore (e16_recover ~smoke:true ());
  failures := List.filter_map e17_twin_failure (e17_twin ()) @ !failures;
  List.iter
    (fun r ->
      match e18_floor r.op with
      | None -> ()
      | Some floor ->
        if r.reference_ns /. r.indexed_ns < floor then
          failures :=
            Printf.sprintf "%s: %.0f fast vs %.0f baseline (< %.1fx)" r.op r.indexed_ns
              r.reference_ns floor
            :: !failures)
    (e18 ~smoke:true ());
  (* A cascade's allocation per victim must stay flat in fanout. *)
  let _, shapes = e18_cascade ~smoke:true () in
  List.iter
    (fun domains ->
      let at fanout =
        List.find_opt (fun c -> c.c_domains = domains && c.c_fanout = fanout) shapes
      in
      match (at 10, at 100) with
      | Some a, Some b ->
        if b.c_words > e18_words_ceiling *. a.c_words then
          failures :=
            Printf.sprintf
              "e18 revoke cascade (%d domain(s)): %.0f words/victim at fanout 100 vs %.0f at \
               fanout 10 (> %.1fx)"
              domains b.c_words a.c_words e18_words_ceiling
            :: !failures
      | _ -> failures := "e18 revoke cascade rows missing" :: !failures)
    [ 7; 1 ];
  (* Share+revoke must stay flat in tree size (the E5b regression). *)
  let srows = capops_scaling ~smoke:true () in
  let ns_at size =
    List.find_opt (fun r -> r.size = size) srows |> Option.map (fun r -> r.indexed_ns)
  in
  (match (ns_at 1000, ns_at 50_000) with
  | Some n1, Some n50 ->
    if n50 /. n1 > scaling_ceiling then
      failures :=
        Printf.sprintf
          "share+revoke scaling: %.0f ns at 50k caps vs %.0f ns at 1k (> %.1fx — superlinear)"
          n50 n1 scaling_ceiling
        :: !failures
  | _ -> failures := "share+revoke scaling rows missing" :: !failures);
  (* Parallel aggregate throughput (E19), hardware-aware: the speedup
     target needs real cores; on fewer the gate only rejects collapse. *)
  let prows = e19 ~smoke:true () in
  let pns w =
    List.find_opt (fun r -> r.size = w) prows |> Option.map (fun r -> r.indexed_ns)
  in
  (match (pns 1, pns 4) with
  | Some n1, Some n4 ->
    let ratio = n1 /. n4 in
    let threads = Stdlib.Domain.recommended_domain_count () in
    if threads >= 4 then begin
      if ratio < e19_speedup_floor then
        failures :=
          Printf.sprintf
            "e19: %.2fx aggregate throughput at 4 domains (< %.1fx, %d hardware threads)"
            ratio e19_speedup_floor threads
          :: !failures
    end
    else begin
      (* GC-barrier noise swamps the ratio on < 4 threads (see the
         e19_speedup_floor comment); the run completing with every op
         succeeding is the gate, the ratio just gets reported. *)
      Printf.printf
        "bench-smoke: e19 speedup gate skipped (%d hardware thread(s) < 4); \
         completed at %.2fx of single-domain throughput\n"
        threads ratio;
      if not (Float.is_finite ratio && ratio > 0.) then
        failures :=
          Printf.sprintf "e19: non-finite throughput ratio %f at 4 domains" ratio
          :: !failures
    end
  | _ -> failures := "e19 parallel throughput rows missing" :: !failures);
  (* Cross-machine delegation: the durable outbox pays only the
     barriers journal-then-ack needs. *)
  failures := List.filter_map e20_twin_failure (e20_twin ()) @ !failures;
  (* The byzantine fuzzer must find nothing: any audit failure under
     hostile domain-0 pressure is a real monitor bug. *)
  (match
     List.find_opt (fun r -> r.op = "e22 byzantine bugs found") (e22 ~smoke:true ())
   with
  | Some r ->
    if r.indexed_ns > 0. then
      failures :=
        Printf.sprintf "e22: byzantine fuzzer found %.0f bug(s) in %d episodes"
          r.indexed_ns r.size
        :: !failures
  | None -> failures := "e22 byzantine bugs row missing" :: !failures);
  (* Live migration: incremental transfer must beat the full snapshot. *)
  (match
     List.find_opt
       (fun r -> r.op = "e21 incremental transfer bytes")
       (e21 ~smoke:true ())
   with
  | Some r ->
    if r.reference_ns /. r.indexed_ns < e21_incremental_floor then
      failures :=
        Printf.sprintf
          "e21: %.0f wire bytes vs %.0f full-snapshot bytes at %d pages (< %.1fx smaller)"
          r.indexed_ns r.reference_ns r.size e21_incremental_floor
        :: !failures
  | None -> failures := "e21 incremental transfer row missing" :: !failures);
  (* Claim C7 under churn, on a count: destroyed tenants free their
     EPTP slots, so a call+return is two VMFUNCs after 600 lifecycles. *)
  let churn = e4_churn_pair () in
  if churn <> 2 * Hw.Cycles.Cost.vmfunc then
    failures :=
      Printf.sprintf "e4: call+ret after 600 lifecycles costs %d cycles (<> 2 x %d VMFUNC)"
        churn Hw.Cycles.Cost.vmfunc
      :: !failures;
  (* Claim C3: the trusted core stays under 10K lines. *)
  let tcb = e10 () in
  if tcb >= tcb_ceiling then
    failures :=
      Printf.sprintf "e10: trusted core is %d non-blank lines (>= %d)" tcb tcb_ceiling
      :: !failures;
  match !failures with
  | [] -> Printf.printf "\nbench-smoke: ok\n"
  | fs ->
    List.iter (fun f -> Printf.printf "bench-smoke FAILURE: %s\n" f) fs;
    exit 1

(* Perf mode (`perf` alias, outside `dune runtest`): the wall-clock
   floors whose deterministic twins bench-smoke gates. *)
let perf_gates () =
  (* One experiment at a time, in the listed order: a chain of [@]s
     would run them back to front. *)
  let e14_rows = e14 ~smoke:true () in
  let e16_rows = e16 ~smoke:true () in
  let e17_rows = e17 ~smoke:true () in
  let e20_rows = e20 ~smoke:true () in
  let floor_failures floor_of =
    List.filter_map (fun r ->
        match floor_of r.op with
        | Some floor when r.reference_ns /. r.indexed_ns < floor ->
          Some
            (Printf.sprintf "%s: %.0f ns fast vs %.0f ns baseline (< %.1fx)" r.op
               r.indexed_ns r.reference_ns floor)
        | _ -> None)
  in
  let failures =
    floor_failures e14_floor e14_rows
    @ floor_failures e16_floor e16_rows
    @ List.filter_map
        (fun r ->
          match e17_ceiling r.op with
          | Some ceiling when r.indexed_ns /. r.reference_ns > ceiling ->
            Some
              (Printf.sprintf "%s: %.0f ns traced vs %.0f ns untraced (> %.1fx)" r.op
                 r.indexed_ns r.reference_ns ceiling)
          | _ -> None)
        e17_rows
    @ List.filter_map
        (fun r ->
          match e20_ceiling r.op with
          | Some ceiling when r.indexed_ns /. r.reference_ns > ceiling ->
            Some
              (Printf.sprintf "%s: %.0f ns journaled vs %.0f ns volatile (> %.1fx)" r.op
                 r.indexed_ns r.reference_ns ceiling)
          | _ -> None)
        e20_rows
  in
  match failures with
  | [] -> Printf.printf "\nbench-perf: ok\n"
  | fs ->
    List.iter (fun f -> Printf.printf "bench-perf FAILURE: %s\n" f) fs;
    exit 1

let () =
  match Sys.argv with
  | [| _; "smoke" |] -> capops_smoke ()
  | [| _; "perf" |] -> perf_gates ()
  | [| _ |] ->
    Printf.printf "Tyche benchmark harness — reproducing HotOS'23 claims\n";
    Printf.printf "(see DESIGN.md section 3 for the experiment index)\n";
    e123 ();
    e4 ();
    e5 ();
    e6 ();
    e7 ();
    e8 ();
    e9 ();
    ignore (e10 ());
    e11 ();
    e12 ();
    ablations ();
    extensions ();
    micro ();
    (* In the listed order: [@] evaluates its right operand first, so
       a chain of [@]s would run the experiments back to front. *)
    let rows =
      List.concat_map
        (fun run -> run ())
        [ (fun () -> fst (capops ()));
          (fun () -> e14 ());
          e14_twins;
          (fun () -> e16 ());
          (fun () -> e16_recover ());
          e16_twin;
          (fun () -> e17 ());
          e17_twin;
          (fun () -> e18 ());
          (fun () -> fst (e18_cascade ()));
          (fun () -> capops_scaling ());
          (fun () -> e19 ());
          (fun () -> e20 ());
          e20_twin;
          (fun () -> e21 ());
          (fun () -> e22 ()) ]
    in
    write_capops_json rows;
    Printf.printf "\nwrote %s (%d rows)\n" capops_json_file (List.length rows);
    Printf.printf "\nbench: done\n"
  | _ ->
    prerr_endline "usage: main.exe [smoke | perf]";
    exit 2
