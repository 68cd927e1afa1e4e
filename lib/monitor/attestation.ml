type region_report = {
  range : Hw.Addr.Range.t;
  perm : Hw.Perm.t;
  refcount : int;
  holders : Domain.id list;
  measured : bool;
}

type evidence = {
  batch_root : Crypto.Sha256.digest;
  proof : Crypto.Merkle.proof;
  root_sig : Crypto.Signature.signature;
}

type t = {
  domain : Domain.id;
  domain_name : string;
  kind : Domain.kind;
  sealed : bool;
  measurement : Crypto.Sha256.digest option;
  regions : region_report list;
  cores : (int * int) list;
  devices : (int * int) list;
  memory_encrypted : bool;
  nonce : string;
  evidence : evidence;
}

let payload_of ~domain ~domain_name ~kind ~sealed ~measurement ~regions ~cores ~devices
    ~memory_encrypted ~nonce =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "tyche-attestation-v1\x00";
  Buffer.add_int32_be buf (Int32.of_int domain);
  Buffer.add_string buf domain_name;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf (Domain.kind_to_string kind);
  Buffer.add_char buf '\x00';
  Buffer.add_char buf (if sealed then '\x01' else '\x00');
  Buffer.add_string buf
    (match measurement with
    | Some m -> Crypto.Sha256.to_raw m
    | None -> String.make 32 '\xff');
  Buffer.add_int32_be buf (Int32.of_int (List.length regions));
  List.iter
    (fun r ->
      Buffer.add_int64_be buf (Int64.of_int (Hw.Addr.Range.base r.range));
      Buffer.add_int64_be buf (Int64.of_int (Hw.Addr.Range.len r.range));
      Buffer.add_string buf (Hw.Perm.to_string r.perm);
      Buffer.add_int32_be buf (Int32.of_int r.refcount);
      List.iter (fun h -> Buffer.add_int32_be buf (Int32.of_int h)) r.holders;
      Buffer.add_char buf (if r.measured then '\x01' else '\x00'))
    regions;
  let add_pairs pairs =
    Buffer.add_int32_be buf (Int32.of_int (List.length pairs));
    List.iter
      (fun (a, b) ->
        Buffer.add_int32_be buf (Int32.of_int a);
        Buffer.add_int32_be buf (Int32.of_int b))
      pairs
  in
  add_pairs cores;
  add_pairs devices;
  Buffer.add_char buf (if memory_encrypted then '\x01' else '\x00');
  Buffer.add_string buf nonce;
  Buffer.contents buf

let payload t =
  payload_of ~domain:t.domain ~domain_name:t.domain_name ~kind:t.kind ~sealed:t.sealed
    ~measurement:t.measurement ~regions:t.regions ~cores:t.cores ~devices:t.devices
    ~memory_encrypted:t.memory_encrypted ~nonce:t.nonce

(* The message actually signed: domain-separated from report payloads,
   so a root signature can never pass for a signature over a payload. *)
let batch_root_payload root =
  "tyche-attestation-batch-v2\x00" ^ Crypto.Sha256.to_raw root

let canonical_regions regions =
  List.sort (fun a b -> Hw.Addr.Range.compare a.range b.range) regions

(* The payload encodes the name NUL-terminated, so an embedded NUL would
   make the signed bytes parse back to a different (shorter) name — a
   non-canonical payload. Refuse at signing time. *)
let check_domain_name domain =
  if String.contains (Domain.name domain) '\x00' then
    invalid_arg "Attestation.sign_batch: domain name contains NUL"

(* Canonicalize one domain's report fields and build the signed body. *)
let prepare ~domain ~regions ~cores ~devices ~memory_encrypted ~nonce =
  check_domain_name domain;
  let regions = canonical_regions regions in
  let cores = List.sort compare cores and devices = List.sort compare devices in
  let did = Domain.id domain in
  let body =
    payload_of ~domain:did ~domain_name:(Domain.name domain) ~kind:(Domain.kind domain)
      ~sealed:(Domain.is_sealed domain) ~measurement:(Domain.measurement domain)
      ~regions ~cores ~devices ~memory_encrypted ~nonce
  in
  let report evidence =
    { domain = did;
      domain_name = Domain.name domain;
      kind = Domain.kind domain;
      sealed = Domain.is_sealed domain;
      measurement = Domain.measurement domain;
      regions;
      cores;
      devices;
      memory_encrypted;
      nonce;
      evidence }
  in
  (body, report)

(* The one signing path, on the hash and signature functions given: the
   fast stack for [sign_batch], the executable specification for
   [sign_spec]. *)
let sign_with ~hash ~sign ~nonce entries =
  let prepared =
    List.map
      (fun (domain, regions, cores, devices, memory_encrypted) ->
        prepare ~domain ~regions ~cores ~devices ~memory_encrypted ~nonce)
      entries
  in
  match prepared with
  | [] -> []
  | _ ->
    let tree = Crypto.Merkle.build (List.map (fun (body, _) -> hash body) prepared) in
    let batch_root = Crypto.Merkle.root tree in
    (* One one-time key authenticates the whole batch. *)
    let root_sig = sign (batch_root_payload batch_root) in
    List.mapi
      (fun i (_, report) ->
        report { batch_root; proof = Crypto.Merkle.prove tree i; root_sig })
      prepared

let sign_batch ~signer ~nonce entries =
  sign_with ~hash:Crypto.Sha256.string ~sign:(Crypto.Signature.sign signer) ~nonce entries

let sign_spec ~signer ~domain ~regions ~cores ~devices ~memory_encrypted ~nonce =
  List.hd
    (sign_with ~hash:Crypto.Sha256.Spec.string ~sign:(Crypto.Signature.sign_spec signer)
       ~nonce
       [ (domain, regions, cores, devices, memory_encrypted) ])

let verify ~monitor_root t =
  let { batch_root; proof; root_sig } = t.evidence in
  (* The monitor vouched for the root; the proof ties this report's
     canonical payload to that root. Both checks are required: the
     signature alone says nothing about this report, the proof alone
     could hang off an attacker-built tree. *)
  Crypto.Signature.verify ~root:monitor_root (batch_root_payload batch_root) root_sig
  && Crypto.Merkle.verify ~root:batch_root ~leaf:(Crypto.Sha256.string (payload t)) proof

(* Wire format: magic | u32 payload length | payload | 32-byte batch
   root | u32 leaf index | u32 path length | path digests | u32
   signature length | root signature.

   The payload is parsed back field-by-field (it was designed to be
   canonical, so re-serializing a parsed report reproduces the signed
   bytes exactly). The magic names the envelope's version 2: version 1,
   a directly signed report, is retired, and its bytes fail the magic
   check. *)

let wire_magic = "tyche-attestation-wire-v2\x00"

let to_wire t =
  let body = payload t in
  let { batch_root; proof = { Crypto.Merkle.leaf_index; path }; root_sig } = t.evidence in
  let sg = Crypto.Signature.signature_to_string root_sig in
  let buf = Buffer.create (String.length body + String.length sg + 256) in
  Buffer.add_string buf wire_magic;
  Buffer.add_int32_be buf (Int32.of_int (String.length body));
  Buffer.add_string buf body;
  Buffer.add_string buf (Crypto.Sha256.to_raw batch_root);
  Buffer.add_int32_be buf (Int32.of_int leaf_index);
  Buffer.add_int32_be buf (Int32.of_int (List.length path));
  List.iter (fun d -> Buffer.add_string buf (Crypto.Sha256.to_raw d)) path;
  Buffer.add_int32_be buf (Int32.of_int (String.length sg));
  Buffer.add_string buf sg;
  Buffer.contents buf

let of_wire wire =
  let exception Bad of string in
  let fail msg = raise (Bad msg) in
  try
    (* Parse the canonical payload. *)
    let parse_body body evidence =
      let pos = ref 0 in
      let take n =
        if !pos + n > String.length body then fail "truncated payload";
        let s = String.sub body !pos n in
        pos := !pos + n;
        s
      in
      let u32 () = Int32.to_int (String.get_int32_be (take 4) 0) in
      let u64 () = Int64.to_int (String.get_int64_be (take 8) 0) in
      let until_nul () =
        match String.index_from_opt body !pos '\x00' with
        | None -> fail "unterminated string"
        | Some stop ->
          let s = String.sub body !pos (stop - !pos) in
          pos := stop + 1;
          s
      in
      if take 21 <> "tyche-attestation-v1\x00" then fail "bad magic";
      let domain = u32 () in
      let domain_name = until_nul () in
      let kind =
        match until_nul () with
        | "os" -> Domain.Os
        | "sandbox" -> Domain.Sandbox
        | "enclave" -> Domain.Enclave
        | "confidential-vm" -> Domain.Confidential_vm
        | "io-domain" -> Domain.Io_domain
        | "remote" -> Domain.Remote
        | k -> fail ("unknown kind " ^ k)
      in
      let sealed =
        match (take 1).[0] with '\x00' -> false | '\x01' -> true | _ -> fail "bad flag"
      in
      let measurement =
        let raw = take 32 in
        if raw = String.make 32 '\xff' then None else Some (Crypto.Sha256.of_raw raw)
      in
      let nregions = u32 () in
      if nregions < 0 || nregions > 65536 then fail "unreasonable region count";
      let regions =
        List.init nregions (fun _ ->
            let base = u64 () in
            let len = u64 () in
            if len <= 0 then fail "empty region";
            let perm_s = take 3 in
            (* Only the canonical letter or '-' is acceptable: any other
               character would re-serialize differently from the signed
               bytes (Perm.to_string emits exactly these). *)
            let perm_flag c expected =
              if c = expected then true
              else if c = '-' then false
              else fail "bad permission field"
            in
            let perm =
              { Hw.Perm.read = perm_flag perm_s.[0] 'r';
                write = perm_flag perm_s.[1] 'w';
                exec = perm_flag perm_s.[2] 'x' }
            in
            let refcount = u32 () in
            if refcount < 0 || refcount > 65536 then fail "unreasonable refcount";
            let holders = List.init refcount (fun _ -> u32 ()) in
            let measured =
              match (take 1).[0] with
              | '\x00' -> false
              | '\x01' -> true
              | _ -> fail "bad measured flag"
            in
            { range = Hw.Addr.Range.make ~base ~len; perm; refcount; holders; measured })
      in
      let pairs () =
        let n = u32 () in
        if n < 0 || n > 65536 then fail "unreasonable pair count";
        List.init n (fun _ ->
            let a = u32 () in
            let b = u32 () in
            (a, b))
      in
      let cores = pairs () in
      let devices = pairs () in
      let memory_encrypted =
        match (take 1).[0] with
        | '\x00' -> false
        | '\x01' -> true
        | _ -> fail "bad encryption flag"
      in
      let nonce = String.sub body !pos (String.length body - !pos) in
      { domain; domain_name; kind; sealed; measurement; regions; cores; devices;
        memory_encrypted; nonce; evidence }
    in
    let read_u32 off =
      if off + 4 > String.length wire then fail "truncated envelope";
      Int32.to_int (String.get_int32_be wire off)
    in
    let magic_len = String.length wire_magic in
    if not (String.starts_with ~prefix:wire_magic wire) then fail "bad envelope magic";
    let body_len = read_u32 magic_len in
    if body_len < 0 || magic_len + 4 + body_len > String.length wire then
      fail "bad payload length";
    let body = String.sub wire (magic_len + 4) body_len in
    let pos = magic_len + 4 + body_len in
    if pos + 32 > String.length wire then fail "truncated batch root";
    let batch_root =
      try Crypto.Sha256.of_raw (String.sub wire pos 32) with Invalid_argument m -> fail m
    in
    let leaf_index = read_u32 (pos + 32) in
    let path_len = read_u32 (pos + 36) in
    if leaf_index < 0 then fail "bad leaf index";
    if path_len < 0 || path_len > 64 then fail "bad path length";
    let path_off = pos + 40 in
    if path_off + (path_len * 32) > String.length wire then fail "truncated path";
    let path =
      List.init path_len (fun i ->
          Crypto.Sha256.of_raw (String.sub wire (path_off + (i * 32)) 32))
    in
    let sig_off = path_off + (path_len * 32) in
    let sig_len = read_u32 sig_off in
    if sig_len < 0 || sig_off + 4 + sig_len <> String.length wire then
      fail "bad signature length";
    let root_sig =
      try Crypto.Signature.signature_of_string (String.sub wire (sig_off + 4) sig_len)
      with Invalid_argument m -> fail m
    in
    let proof = { Crypto.Merkle.leaf_index; path } in
    Ok (parse_body body { batch_root; proof; root_sig })
  with
  | Bad msg -> Error ("Attestation.of_wire: " ^ msg)
  | Invalid_argument msg -> Error ("Attestation.of_wire: " ^ msg)

let pp fmt t =
  Format.fprintf fmt "@[<v>attestation for domain#%d (%s, %a%s)@," t.domain t.domain_name
    Domain.pp_kind t.kind
    (if t.sealed then ", sealed" else "");
  (match t.measurement with
  | Some m -> Format.fprintf fmt "measurement: %a@," Crypto.Sha256.pp m
  | None -> Format.fprintf fmt "measurement: <unsealed>@,");
  Format.fprintf fmt "memory encryption: %s@,"
    (if t.memory_encrypted then "private key (MKTME)" else "none");
  Format.fprintf fmt "batched: leaf %d of tree %a@,"
    t.evidence.proof.Crypto.Merkle.leaf_index Crypto.Sha256.pp t.evidence.batch_root;
  Format.fprintf fmt "regions:@,";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %a %a refs=%d holders=[%s]%s@," Hw.Addr.Range.pp r.range
        Hw.Perm.pp r.perm r.refcount
        (String.concat ";" (List.map string_of_int r.holders))
        (if r.measured then " measured" else ""))
    t.regions;
  List.iter (fun (c, n) -> Format.fprintf fmt "  core#%d refs=%d@," c n) t.cores;
  List.iter (fun (d, n) -> Format.fprintf fmt "  dev#%04x refs=%d@," d n) t.devices;
  Format.fprintf fmt "@]"
