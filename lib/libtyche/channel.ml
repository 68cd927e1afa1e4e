let ( let* ) = Result.bind

let monitor_err r = Result.map_error Tyche.Monitor.error_to_string r

type t = {
  range : Hw.Addr.Range.t;
  owner : Tyche.Domain.id;
  peer : Tyche.Domain.id;
  owner_cap : Cap.Captree.cap_id;
  peer_cap : Cap.Captree.cap_id;
  key : string;
}

let range t = t.range
let owner t = t.owner
let peer t = t.peer

let header_bytes = 4 + 32 (* length prefix + MAC *)

let create monitor ~owner ~peer ~memory_cap ~range ?key () =
  if Hw.Addr.Range.len range < header_bytes + 1 then
    Error "channel range too small for header"
  else begin
    let tree = Tyche.Monitor.tree monitor in
    let* owner_cap =
      monitor_err (Tyche.Monitor.carve monitor ~caller:owner ~cap:memory_cap ~subrange:range)
    in
    let* () =
      if Cap.Captree.exclusively_owned tree ~domain:owner (Cap.Resource.Memory range)
      then Ok ()
      else Error "channel memory is not exclusively owned before sharing"
    in
    let* peer_cap =
      monitor_err
        (Tyche.Monitor.share monitor ~caller:owner ~cap:owner_cap ~to_:peer
           ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Zero_and_flush ())
    in
    let key =
      match key with
      | Some k -> k
      | None ->
        Crypto.Hmac.derive ~key:"tyche-channel"
          ~label:(Printf.sprintf "%d:%d:0x%x" owner peer (Hw.Addr.Range.base range))
    in
    Ok { range; owner; peer; owner_cap; peer_cap; key }
  end

let endpoint_check t monitor ~core =
  let current = Tyche.Monitor.current_domain monitor ~core in
  if current = t.owner || current = t.peer then Ok ()
  else Error "core is not running a channel endpoint"

let send t monitor ~core msg =
  let* () = endpoint_check t monitor ~core in
  if header_bytes + String.length msg > Hw.Addr.Range.len t.range then
    Error "message does not fit in the channel"
  else begin
    let base = Hw.Addr.Range.base t.range in
    let mac = Crypto.Sha256.to_raw (Crypto.Hmac.mac ~key:t.key msg) in
    let len = String.length msg in
    let header = Bytes.create 4 in
    Bytes.set_int32_be header 0 (Int32.of_int len);
    let* () =
      monitor_err (Tyche.Monitor.store_string monitor ~core base (Bytes.to_string header))
    in
    let* () = monitor_err (Tyche.Monitor.store_string monitor ~core (base + 4) mac) in
    monitor_err (Tyche.Monitor.store_string monitor ~core (base + header_bytes) msg)
  end

let recv t monitor ~core =
  let* () = endpoint_check t monitor ~core in
  let base = Hw.Addr.Range.base t.range in
  let* header =
    monitor_err
      (Tyche.Monitor.load_string monitor ~core (Hw.Addr.Range.make ~base ~len:4))
  in
  let len = Int32.to_int (String.get_int32_be header 0) in
  if len <= 0 || header_bytes + len > Hw.Addr.Range.len t.range then
    Error "channel empty or corrupt length"
  else begin
    let* mac =
      monitor_err
        (Tyche.Monitor.load_string monitor ~core
           (Hw.Addr.Range.make ~base:(base + 4) ~len:32))
    in
    let* msg =
      monitor_err
        (Tyche.Monitor.load_string monitor ~core
           (Hw.Addr.Range.make ~base:(base + header_bytes) ~len))
    in
    if Crypto.Hmac.verify ~key:t.key msg (Crypto.Sha256.of_raw mac) then Ok msg
    else Error "message authentication failed"
  end

let is_private t monitor =
  let tree = Tyche.Monitor.tree monitor in
  Cap.Captree.holders tree (Cap.Resource.Memory t.range)
  = List.sort_uniq Int.compare [ t.owner; t.peer ]

let close t monitor =
  monitor_err (Tyche.Monitor.revoke monitor ~caller:t.owner ~cap:t.peer_cap)
