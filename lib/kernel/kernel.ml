module Alloc = Alloc
module Process = Process
module Driver = Driver
module Hypervisor = Hypervisor

let ( let* ) = Result.bind

let monitor_err r = Result.map_error Tyche.Monitor.error_to_string r

type t = {
  monitor : Tyche.Monitor.t;
  core : int;
  alloc : Alloc.t;
  mutable processes : Process.t list;
  mutable next_pid : int;
  mutable console : string list; (* newest first *)
  mutable last_ran : Process.pid option;
}

let boot monitor ~core ~heap =
  let os = Tyche.Domain.initial in
  let holds =
    List.exists
      (fun cap ->
        match Cap.Captree.resource (Tyche.Monitor.tree monitor) cap with
        | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.includes ~outer:r ~inner:heap
        | _ -> false)
      (Tyche.Monitor.caps_of monitor os)
  in
  if not holds then Error "kernel heap is not covered by a domain-0 capability"
  else
    Ok
      { monitor;
        core;
        alloc = Alloc.create heap;
        processes = [];
        next_pid = 1;
        console = [];
        last_ran = None }

let monitor t = t.monitor
let allocator t = t.alloc
let core t = t.core
let console t = List.rev t.console

let find_process t pid = List.find_opt (fun p -> Process.pid p = pid) t.processes

let process_state t pid = Option.map Process.state (find_process t pid)

let spawn t ?core ~name ~arena_bytes ~program () =
  let core = Option.value core ~default:t.core in
  let machine = Tyche.Monitor.machine t.monitor in
  if core < 0 || core >= Array.length machine.Hw.Machine.cores then
    Error (Printf.sprintf "no such core: %d" core)
  else
  match Alloc.alloc t.alloc ~bytes:arena_bytes with
  | None -> Error "out of kernel memory"
  | Some mem ->
    let pid = t.next_pid in
    t.next_pid <- pid + 1;
    (* The process's own address space: vaddr 0 maps to the arena. The
       monitor knows nothing about this table — in-domain protection is
       the kernel's business. *)
    let page_table = Hw.Page_table.create ~counter:machine.Hw.Machine.counter in
    Hw.Page_table.map_range page_table ~vaddr:0 mem Hw.Perm.rw;
    t.processes <-
      t.processes @ [ Process.make ~pid ~name ~mem ~core ~page_table ~program ];
    Ok pid

let ctx_for t proc =
  let mem = Process.mem proc in
  let os = Tyche.Domain.initial in
  let arena_len = Hw.Addr.Range.len mem in
  let in_arena vaddr len = vaddr >= 0 && vaddr + len <= arena_len in
  let pcore = Process.core proc in
  let cpu = Hw.Machine.core (Tyche.Monitor.machine t.monitor) pcore in
  (* Monitor transitions (enclave calls) leave the per-process table in
     place; enclave code runs in its own physical frame of reference, so
     the kernel swaps the table out around the call. *)
  let without_pt f =
    Hw.Cpu.set_active_page_table cpu None;
    let result = f () in
    Hw.Cpu.set_active_page_table cpu (Some (Process.page_table proc));
    result
  in
  { Process.pid = Process.pid proc;
    core = pcore;
    mem;
    read =
      (fun vaddr len ->
        if not (in_arena vaddr len) then Error "read outside process arena"
        else
          monitor_err
            (Tyche.Monitor.load_string t.monitor ~core:pcore
               (Hw.Addr.Range.make ~base:vaddr ~len)));
    write =
      (fun vaddr data ->
        if not (in_arena vaddr (String.length data)) then
          Error "write outside process arena"
        else monitor_err (Tyche.Monitor.store_string t.monitor ~core:pcore vaddr data));
    sys_yield = (fun () -> ());
    sys_exit = (fun code -> Process.set_state proc (Process.Exited code));
    sys_log =
      (fun msg ->
        t.console <- Printf.sprintf "[pid %d] %s" (Process.pid proc) msg :: t.console);
    sys_spawn_enclave =
      (fun ~image ~at_offset ->
        let at = Hw.Addr.Range.base mem + at_offset in
        let footprint = Hw.Addr.Range.make ~base:at ~len:(Image.size image) in
        if not (Hw.Addr.Range.includes ~outer:mem ~inner:footprint) then
          Error "enclave does not fit in the process arena"
        else
          let* memory_cap =
            match Libtyche.Loader.cap_containing t.monitor ~domain:os footprint with
            | Some c -> Ok c
            | None -> Error "no kernel capability covers the arena"
          in
          without_pt (fun () ->
              Libtyche.Enclave.create t.monitor ~caller:os ~core:pcore ~memory_cap ~at
                ~image ()));
    sys_call_enclave =
      (fun handle ->
        Hw.Cpu.set_active_page_table cpu None;
        Libtyche.Enclave.call t.monitor ~core:pcore handle);
    sys_return =
      (fun () ->
        let r = Libtyche.Enclave.return_from t.monitor ~core:pcore in
        Hw.Cpu.set_active_page_table cpu (Some (Process.page_table proc));
        r) }

let runnable t =
  List.filter (fun p -> Process.state p = Process.Ready) t.processes

let run t ?(max_quanta = 10_000) () =
  let machine = Tyche.Monitor.machine t.monitor in
  let quanta = ref 0 in
  let continue_ = ref true in
  while !continue_ && !quanta < max_quanta do
    match runnable t with
    | [] -> continue_ := false
    | ready ->
      List.iter
        (fun proc ->
          if Process.state proc = Process.Ready && !quanta < max_quanta then begin
            incr quanta;
            (* Switching between distinct processes costs what it costs
               on a commodity kernel. *)
            if t.last_ran <> Some (Process.pid proc) then
              Hw.Cycles.charge machine.Hw.Machine.counter
                Hw.Cycles.Cost.process_context_switch;
            t.last_ran <- Some (Process.pid proc);
            Process.set_state proc Process.Running;
            (* Install the process's address space on its core. *)
            let cpu = Hw.Machine.core machine (Process.core proc) in
            Hw.Cpu.set_active_page_table cpu (Some (Process.page_table proc));
            let result = (Process.program proc) (ctx_for t proc) in
            Hw.Cpu.set_active_page_table cpu None;
            match Process.state proc, result with
            | Process.Exited _, _ -> () (* sys_exit already recorded it *)
            | _, `Done code -> Process.set_state proc (Process.Exited code)
            | _, `Yield -> Process.set_state proc Process.Ready
          end)
        ready
  done;
  !quanta

let kill t pid =
  match find_process t pid with
  | None -> Error (Printf.sprintf "no such process: %d" pid)
  | Some proc ->
    (match Process.state proc with
    | Process.Exited _ -> ()
    | _ -> Process.set_state proc (Process.Exited (-9)));
    Alloc.free t.alloc (Process.mem proc);
    t.processes <- List.filter (fun p -> Process.pid p <> pid) t.processes;
    Ok ()

let attach_driver t ~device ?sandboxed_with () =
  match sandboxed_with with
  | None -> Driver.attach_trusted t.monitor ~alloc:t.alloc ~device
  | Some driver_image ->
    Driver.attach_sandboxed t.monitor ~alloc:t.alloc ~core:t.core ~device ~driver_image

let detach_driver t driver = Driver.detach driver t.monitor ~alloc:t.alloc
