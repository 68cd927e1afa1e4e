let ( let* ) = Result.bind

let monitor_err r = Result.map_error Tyche.Monitor.error_to_string r

type mode = Trusted | Sandboxed

let pp_mode fmt = function
  | Trusted -> Format.pp_print_string fmt "trusted"
  | Sandboxed -> Format.pp_print_string fmt "sandboxed"

type t = {
  name : string;
  mode : mode;
  device : Hw.Device.t;
  dma_buffer : Hw.Addr.Range.t;
  arena : Hw.Addr.Range.t option; (* sandbox image footprint, for detach *)
  sandbox : Libtyche.Handle.t option;
}

let name t = t.name
let mode t = t.mode
let device t = t.device
let sandbox_domain t = Option.map (fun h -> h.Libtyche.Handle.domain) t.sandbox

let buffer_bytes = 2 * Hw.Addr.page_size

let find_device_cap monitor ~domain bdf =
  let tree = Tyche.Monitor.tree monitor in
  List.find_opt
    (fun cap -> Cap.Captree.resource tree cap = Some (Cap.Resource.Device bdf))
    (Tyche.Monitor.caps_of monitor domain)

let attach_trusted _monitor ~alloc ~device =
  match Alloc.alloc alloc ~bytes:buffer_bytes with
  | None -> Error "out of memory for DMA buffer"
  | Some dma_buffer ->
    Ok
      { name = Hw.Device.kind_to_string (Hw.Device.kind device);
        mode = Trusted;
        device;
        dma_buffer;
        arena = None;
        sandbox = None }

let attach_sandboxed monitor ~alloc ~core ~device ~driver_image =
  let os = Tyche.Domain.initial in
  let shared_image =
    { driver_image with
      Image.segments =
        List.map
          (fun s -> { s with Image.visibility = Image.Shared })
          driver_image.Image.segments }
  in
  let* arena =
    match Alloc.alloc alloc ~bytes:(Image.size shared_image) with
    | Some r -> Ok r
    | None -> Error "out of memory for driver image"
  in
  let* dma_buffer =
    match Alloc.alloc alloc ~bytes:buffer_bytes with
    | Some r -> Ok r
    | None -> Error "out of memory for DMA buffer"
  in
  let* memory_cap =
    match Libtyche.Loader.cap_containing monitor ~domain:os arena with
    | Some c -> Ok c
    | None -> Error "kernel holds no capability over the driver arena"
  in
  let* handle =
    Libtyche.Loader.load monitor ~caller:os ~core ~memory_cap
      ~at:(Hw.Addr.Range.base arena) ~image:shared_image ~kind:Tyche.Domain.Sandbox
      ~seal:false ()
  in
  let sandbox = handle.Libtyche.Handle.domain in
  (* Share the DMA arena so kernel and driver exchange requests there. *)
  let* buf_holder =
    match Libtyche.Loader.cap_containing monitor ~domain:os dma_buffer with
    | Some c -> Ok c
    | None -> Error "kernel holds no capability over the DMA buffer"
  in
  let* buf_piece =
    monitor_err (Tyche.Monitor.carve monitor ~caller:os ~cap:buf_holder ~subrange:dma_buffer)
  in
  let* _ =
    monitor_err
      (Tyche.Monitor.share monitor ~caller:os ~cap:buf_piece ~to_:sandbox
         ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Zero_and_flush ())
  in
  (* Grant (move) the device: its IOMMU context follows the sandbox. *)
  let* dev_cap =
    match find_device_cap monitor ~domain:os (Hw.Device.bdf device) with
    | Some c -> Ok c
    | None -> Error "kernel holds no capability for the device"
  in
  let* _ =
    monitor_err
      (Tyche.Monitor.grant monitor ~caller:os ~cap:dev_cap ~to_:sandbox
         ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep)
  in
  let* () = monitor_err (Tyche.Monitor.seal monitor ~caller:os ~domain:sandbox) in
  Ok
    { name = Hw.Device.kind_to_string (Hw.Device.kind device) ^ "-sandboxed";
      mode = Sandboxed;
      device;
      dma_buffer;
      arena = Some arena;
      sandbox = Some handle }

let submit t monitor ~core ~data =
  let machine = Tyche.Monitor.machine monitor in
  let base = Hw.Addr.Range.base t.dma_buffer in
  if String.length data > Hw.Addr.page_size then Error "request too large"
  else begin
    let* () = monitor_err (Tyche.Monitor.store_string monitor ~core base data) in
    (* The device DMA-reads the request and DMA-writes the response into
       the second page of the buffer; both cross the IOMMU. *)
    match
      let request =
        Hw.Device.dma_read t.device machine.Hw.Machine.iommu machine.Hw.Machine.mem
          (Hw.Addr.Range.make ~base ~len:(max 1 (String.length data)))
      in
      let response =
        String.init (String.length request) (fun i ->
            request.[String.length request - 1 - i])
      in
      Hw.Device.dma_write t.device machine.Hw.Machine.iommu machine.Hw.Machine.mem
        (base + Hw.Addr.page_size) response;
      response
    with
    | response ->
      let* echoed =
        monitor_err
          (Tyche.Monitor.load_string monitor ~core
             (Hw.Addr.Range.make ~base:(base + Hw.Addr.page_size)
                ~len:(String.length response)))
      in
      Ok echoed
    | exception Hw.Iommu.Dma_fault { addr; _ } ->
      Error (Printf.sprintf "IOMMU blocked DMA at 0x%x" addr)
  end

let rogue_dma t monitor ~target =
  let machine = Tyche.Monitor.machine monitor in
  match
    Hw.Device.dma_write t.device machine.Hw.Machine.iommu machine.Hw.Machine.mem target
      (String.make 16 '\xde')
  with
  | () -> Ok ()
  | exception Hw.Iommu.Dma_fault { addr; _ } ->
    Error (Printf.sprintf "IOMMU blocked DMA at 0x%x" addr)

let detach t monitor ~alloc =
  let os = Tyche.Domain.initial in
  let* () =
    match t.sandbox with
    | None -> Ok ()
    | Some handle ->
      monitor_err
        (Tyche.Monitor.destroy_domain monitor ~caller:os
           ~domain:handle.Libtyche.Handle.domain)
  in
  Alloc.free alloc t.dma_buffer;
  Option.iter (Alloc.free alloc) t.arena;
  Ok ()
