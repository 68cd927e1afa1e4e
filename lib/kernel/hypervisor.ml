let ( let* ) = Result.bind

let monitor_err r = Result.map_error Tyche.Monitor.error_to_string r

type vm_id = int

type vm_state = Running | Halted

type guest_ctx = {
  vm : vm_id;
  ram : Hw.Addr.Range.t;
  read : Hw.Addr.t -> int -> (string, string) result;
  write : Hw.Addr.t -> string -> (unit, string) result;
  console : string -> unit;
  disk_read : off:int -> len:int -> (string, string) result;
  disk_write : off:int -> string -> (unit, string) result;
}

type guest_program = guest_ctx -> [ `Yield | `Halt ]

type vm = {
  id : vm_id;
  cvm : Libtyche.Confidential_vm.t;
  ring : Hw.Addr.Range.t;
  vcpu_cores : int list;
  program : guest_program;
  footprint : Hw.Addr.Range.t; (* image + ram, for reclamation *)
  mutable vm_state : vm_state;
  mutable console_lines : string list; (* newest first *)
}

type t = {
  monitor : Tyche.Monitor.t;
  alloc : Alloc.t;
  host_core : int;
  disk : Bytes.t;
  mutable vms : vm list;
  mutable next_id : vm_id;
}

let create monitor ~alloc ~host_core ~disk_size =
  { monitor;
    alloc;
    host_core;
    disk = Bytes.make disk_size '\x00';
    vms = [];
    next_id = 1 }

let os = Tyche.Domain.initial

let find t id = List.find_opt (fun vm -> vm.id = id) t.vms

(* Ring field offsets (see the .mli diagram). *)
let off_reqlen = 0
let off_opcode = 4
let off_diskoff = 8
let off_paylen = 16
let off_payload = 20
let off_response = 2048

let op_console = 1
let op_disk_read = 2
let op_disk_write = 3

let u32_bytes v =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int v);
  Bytes.to_string b

let u64_bytes v =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int v);
  Bytes.to_string b

let read_u32 monitor ~core addr =
  let* s =
    monitor_err
      (Tyche.Monitor.load_string monitor ~core (Hw.Addr.Range.make ~base:addr ~len:4))
  in
  Ok (Int32.to_int (String.get_int32_be s 0))

let read_u64 monitor ~core addr =
  let* s =
    monitor_err
      (Tyche.Monitor.load_string monitor ~core (Hw.Addr.Range.make ~base:addr ~len:8))
  in
  Ok (Int64.to_int (String.get_int64_be s 0))

(* Write a request into the ring, as whoever is current on [core]. *)
let post_request monitor ~core ~ring ~opcode ~disk_off payload =
  let base = Hw.Addr.Range.base ring in
  let* () =
    if off_payload + String.length payload > off_response then
      Error "ring request too large"
    else Ok ()
  in
  let* () = monitor_err (Tyche.Monitor.store_string monitor ~core (base + off_opcode)
                           (String.make 1 (Char.chr opcode))) in
  let* () =
    monitor_err
      (Tyche.Monitor.store_string monitor ~core (base + off_diskoff) (u64_bytes disk_off))
  in
  let* () =
    monitor_err
      (Tyche.Monitor.store_string monitor ~core (base + off_paylen)
         (u32_bytes (String.length payload)))
  in
  let* () =
    if payload = "" then Ok ()
    else monitor_err (Tyche.Monitor.store_string monitor ~core (base + off_payload) payload)
  in
  (* Length written last: it is the "doorbell". *)
  monitor_err
    (Tyche.Monitor.store_string monitor ~core (base + off_reqlen)
       (u32_bytes (off_payload + String.length payload)))

(* Host side: service whatever request sits in the ring. Runs as the OS
   on the host core; it can only see the ring page, never guest RAM. *)
let service_ring t vm =
  let m = t.monitor in
  let core = t.host_core in
  let base = Hw.Addr.Range.base vm.ring in
  let* reqlen = read_u32 m ~core (base + off_reqlen) in
  if reqlen = 0 then Ok false
  else begin
    let* opcode_s =
      monitor_err
        (Tyche.Monitor.load_string m ~core
           (Hw.Addr.Range.make ~base:(base + off_opcode) ~len:1))
    in
    let opcode = Char.code opcode_s.[0] in
    let* disk_off = read_u64 m ~core (base + off_diskoff) in
    let* paylen = read_u32 m ~core (base + off_paylen) in
    let* payload =
      if paylen = 0 then Ok ""
      else if paylen < 0 || off_payload + paylen > off_response then
        Error "corrupt ring payload length"
      else
        monitor_err
          (Tyche.Monitor.load_string m ~core
             (Hw.Addr.Range.make ~base:(base + off_payload) ~len:paylen))
    in
    let respond data =
      let* () =
        if 4 + String.length data > Hw.Addr.Range.len vm.ring - off_response then
          Error "response too large"
        else Ok ()
      in
      let* () =
        monitor_err
          (Tyche.Monitor.store_string m ~core (base + off_response)
             (u32_bytes (String.length data)))
      in
      let* () =
        if data = "" then Ok ()
        else
          monitor_err
            (Tyche.Monitor.store_string m ~core (base + off_response + 4) data)
      in
      (* Clear the doorbell: request consumed. *)
      monitor_err (Tyche.Monitor.store_string m ~core (base + off_reqlen) (u32_bytes 0))
    in
    let* () =
      if opcode = op_console then begin
        vm.console_lines <- payload :: vm.console_lines;
        respond ""
      end
      else if opcode = op_disk_read then begin
        if disk_off < 0 || paylen <> 4 then Error "bad disk read request"
        else begin
          let len = Int32.to_int (String.get_int32_be payload 0) in
          if len < 0 || disk_off + len > Bytes.length t.disk then
            Error "disk read out of range"
          else respond (Bytes.sub_string t.disk disk_off len)
        end
      end
      else if opcode = op_disk_write then begin
        if disk_off < 0 || disk_off + String.length payload > Bytes.length t.disk then
          Error "disk write out of range"
        else begin
          Bytes.blit_string payload 0 t.disk disk_off (String.length payload);
          respond ""
        end
      end
      else Error (Printf.sprintf "unknown ring opcode %d" opcode)
    in
    Ok true
  end

(* Guest side: read the response area after the host serviced a ring. *)
let read_response monitor ~core ~ring =
  let base = Hw.Addr.Range.base ring in
  let* len = read_u32 monitor ~core (base + off_response) in
  if len = 0 then Ok ""
  else if len < 0 || off_response + 4 + len > Hw.Addr.Range.len ring then
    Error "corrupt ring response"
  else
    monitor_err
      (Tyche.Monitor.load_string monitor ~core
         (Hw.Addr.Range.make ~base:(base + off_response + 4) ~len))

let launch t ~name ~image ~ram_bytes ~vcpu_cores ~program =
  let* () =
    if vcpu_cores = [] then Error "a VM needs at least one vCPU core"
    else if List.mem t.host_core vcpu_cores then
      Error "vCPU cores must not include the hypervisor's host core"
    else Ok ()
  in
  let* ring_seg =
    match Image.find_segment image ".virtio" with
    | Some seg when seg.Image.visibility = Image.Shared -> Ok seg
    | Some _ -> Error "the .virtio segment must be Shared"
    | None -> Error "the guest image has no .virtio segment"
  in
  let total = Image.size image + ram_bytes in
  let* footprint =
    match Alloc.alloc t.alloc ~bytes:total with
    | Some r -> Ok r
    | None -> Error "out of host memory for the guest"
  in
  let base = Hw.Addr.Range.base footprint in
  let* memory_cap =
    match Libtyche.Loader.cap_containing t.monitor ~domain:os footprint with
    | Some c -> Ok c
    | None -> Error "host holds no capability over the allocated guest memory"
  in
  let* cvm =
    Libtyche.Confidential_vm.create t.monitor ~caller:os ~core:t.host_core ~memory_cap
      ~at:base ~image ~ram_bytes ~cores:vcpu_cores ()
  in
  let ring = Image.segment_range ring_seg ~at:base in
  let id = t.next_id in
  t.next_id <- id + 1;
  ignore name;
  t.vms <-
    t.vms
    @ [ { id; cvm; ring; vcpu_cores; program; footprint; vm_state = Running;
          console_lines = [] } ];
  Ok id

let ctx_for t vm ~core =
  let m = t.monitor in
  let ram = vm.cvm.Libtyche.Confidential_vm.ram in
  let in_ram addr len =
    addr >= Hw.Addr.Range.base ram && addr + len <= Hw.Addr.Range.limit ram
  in
  let ring_call ~opcode ~disk_off payload =
    (* Synchronous hypercall-style I/O: post the request, exit to the
       host to service it, re-enter, read the response. *)
    let* () = post_request m ~core ~ring:vm.ring ~opcode ~disk_off payload in
    let* _ = monitor_err (Tyche.Monitor.ret m ~core) in
    let* serviced = service_ring t vm in
    let* () = if serviced then Ok () else Error "host did not find the request" in
    let* _ = monitor_err (Tyche.Monitor.call m ~core ~target:vm.cvm.Libtyche.Confidential_vm.handle.Libtyche.Handle.domain) in
    read_response m ~core ~ring:vm.ring
  in
  { vm = vm.id;
    ram;
    read =
      (fun addr len ->
        if not (in_ram addr len) then Error "read outside guest RAM"
        else
          monitor_err
            (Tyche.Monitor.load_string m ~core (Hw.Addr.Range.make ~base:addr ~len)));
    write =
      (fun addr data ->
        if not (in_ram addr (String.length data)) then Error "write outside guest RAM"
        else monitor_err (Tyche.Monitor.store_string m ~core addr data));
    console =
      (fun line ->
        match ring_call ~opcode:op_console ~disk_off:0 line with
        | Ok _ -> ()
        | Error _ -> ());
    disk_read =
      (fun ~off ~len -> ring_call ~opcode:op_disk_read ~disk_off:off (u32_bytes len));
    disk_write =
      (fun ~off data ->
        let* _ = ring_call ~opcode:op_disk_write ~disk_off:off data in
        Ok ()) }

let run_quantum t vm =
  let core = List.hd vm.vcpu_cores in
  let target = vm.cvm.Libtyche.Confidential_vm.handle.Libtyche.Handle.domain in
  match Tyche.Monitor.call t.monitor ~core ~target with
  | Error e -> failwith (Tyche.Monitor.error_to_string e)
  | Ok _ ->
    let result = vm.program (ctx_for t vm ~core) in
    (match Tyche.Monitor.ret t.monitor ~core with
    | Ok _ -> ()
    | Error e -> failwith (Tyche.Monitor.error_to_string e));
    (* Drain any console request left in the ring. *)
    (match service_ring t vm with Ok _ -> () | Error _ -> ());
    (match result with `Yield -> () | `Halt -> vm.vm_state <- Halted)

let run t ?(max_quanta = 1000) () =
  let quanta = ref 0 in
  let progressing = ref true in
  while !progressing && !quanta < max_quanta do
    match List.filter (fun vm -> vm.vm_state = Running) t.vms with
    | [] -> progressing := false
    | running ->
      List.iter
        (fun vm ->
          if vm.vm_state = Running && !quanta < max_quanta then begin
            incr quanta;
            run_quantum t vm
          end)
        running
  done;
  !quanta

let state t id = Option.map (fun vm -> vm.vm_state) (find t id)

let console_output t id =
  match find t id with Some vm -> List.rev vm.console_lines | None -> []

let disk_contents t ~off ~len = Bytes.sub_string t.disk off len

let host_reads_guest_ram t id =
  match find t id with
  | None -> Error "no such vm"
  | Some vm ->
    monitor_err
      (Result.map ignore
         (Tyche.Monitor.load t.monitor ~core:t.host_core
            (Hw.Addr.Range.base vm.cvm.Libtyche.Confidential_vm.ram)))

let destroy t id =
  match find t id with
  | None -> Error "no such vm"
  | Some vm ->
    let* () = Libtyche.Confidential_vm.destroy t.monitor ~caller:os vm.cvm in
    Alloc.free t.alloc vm.footprint;
    t.vms <- List.filter (fun v -> v.id <> id) t.vms;
    Ok ()

let guest_ram t id =
  Option.map (fun vm -> vm.cvm.Libtyche.Confidential_vm.ram) (find t id)

let vm_domain t id =
  Option.map
    (fun vm -> vm.cvm.Libtyche.Confidential_vm.handle.Libtyche.Handle.domain)
    (find t id)
