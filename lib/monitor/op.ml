type call =
  | Create_domain of { name : string; kind : Domain.kind }
  | Set_entry_point of { domain : Domain.id; entry : Hw.Addr.t }
  | Set_flush_policy of { domain : Domain.id; flush : bool }
  | Mark_measured of { domain : Domain.id; range : Hw.Addr.Range.t }
  | Seal of { domain : Domain.id }
  | Destroy of { domain : Domain.id }
  | Share of {
      cap : Cap.Captree.cap_id;
      to_ : Domain.id;
      rights : Cap.Rights.t;
      cleanup : Cap.Revocation.t;
      subrange : Hw.Addr.Range.t option;
    }
  | Grant of {
      cap : Cap.Captree.cap_id;
      to_ : Domain.id;
      rights : Cap.Rights.t;
      cleanup : Cap.Revocation.t;
    }
  | Split of { cap : Cap.Captree.cap_id; at : Hw.Addr.t }
  | Carve of { cap : Cap.Captree.cap_id; subrange : Hw.Addr.Range.t }
  | Revoke of { cap : Cap.Captree.cap_id }
  | Enumerate
  | Attest of { domain : Domain.id; nonce : string }
  | Call of { target : Domain.id }
  | Return

type result_value =
  | R_unit
  | R_domain of Domain.id
  | R_cap of Cap.Captree.cap_id
  | R_cap_pair of Cap.Captree.cap_id * Cap.Captree.cap_id
  | R_caps of Cap.Captree.cap_id list
  | R_attestation of Attestation.t
  | R_path of Backend_intf.transition_path

let pp_call fmt = function
  | Create_domain { name; kind } ->
    Format.fprintf fmt "create_domain(%s,%a)" name Domain.pp_kind kind
  | Set_entry_point { domain; entry } ->
    Format.fprintf fmt "set_entry_point(#%d,0x%x)" domain entry
  | Set_flush_policy { domain; flush } ->
    Format.fprintf fmt "set_flush_policy(#%d,%b)" domain flush
  | Mark_measured { domain; range } ->
    Format.fprintf fmt "mark_measured(#%d,%a)" domain Hw.Addr.Range.pp range
  | Seal { domain } -> Format.fprintf fmt "seal(#%d)" domain
  | Destroy { domain } -> Format.fprintf fmt "destroy(#%d)" domain
  | Share { cap; to_; _ } -> Format.fprintf fmt "share(cap%d -> #%d)" cap to_
  | Grant { cap; to_; _ } -> Format.fprintf fmt "grant(cap%d -> #%d)" cap to_
  | Split { cap; at } -> Format.fprintf fmt "split(cap%d @ 0x%x)" cap at
  | Carve { cap; subrange } ->
    Format.fprintf fmt "carve(cap%d, %a)" cap Hw.Addr.Range.pp subrange
  | Revoke { cap } -> Format.fprintf fmt "revoke(cap%d)" cap
  | Enumerate -> Format.pp_print_string fmt "enumerate"
  | Attest { domain; _ } -> Format.fprintf fmt "attest(#%d)" domain
  | Call { target } -> Format.fprintf fmt "call(#%d)" target
  | Return -> Format.pp_print_string fmt "return"

let op_name = function
  | Create_domain _ -> "create_domain"
  | Set_entry_point _ -> "set_entry_point"
  | Set_flush_policy _ -> "set_flush_policy"
  | Mark_measured _ -> "mark_measured"
  | Seal _ -> "seal"
  | Destroy _ -> "destroy"
  | Share _ -> "share"
  | Grant _ -> "grant"
  | Split _ -> "split"
  | Carve _ -> "carve"
  | Revoke _ -> "revoke"
  | Enumerate -> "enumerate"
  | Attest _ -> "attest"
  | Call _ -> "call"
  | Return -> "return"

type record =
  | Issued of { by : int; call : call; digest : string }
  | Evicted of { core : int }

let issued by call = Issued { by; call; digest = "" }

module W = Persist.Wire

let encode record =
  let b = Buffer.create 48 in
  let int v = W.int b v in
  let range r =
    int (Hw.Addr.Range.base r);
    int (Hw.Addr.Range.len r)
  in
  let rights r = W.u8 b (Cap.Rights.to_bits r) in
  let cleanup c = W.u8 b (Cap.Revocation.to_code c) in
  (match record with
  | Evicted { core } ->
    W.u8 b 14;
    int core
  | Issued { by; call; digest } -> (
    let op n =
      W.u8 b n;
      int by
    in
    match call with
    | Create_domain { name; kind } ->
      op 1;
      W.str b name;
      W.u8 b (Domain.kind_to_code kind)
    | Set_entry_point { domain; entry } ->
      op 2;
      int domain;
      int entry
    | Set_flush_policy { domain; flush } ->
      op 3;
      int domain;
      W.bool_ b flush
    | Mark_measured { domain; range = r } ->
      op 4;
      int domain;
      range r
    | Seal { domain } ->
      op 5;
      int domain;
      W.str b digest
    | Destroy { domain } ->
      op 6;
      int domain
    | Share { cap; to_; rights = r; cleanup = c; subrange } ->
      op 7;
      int cap;
      int to_;
      rights r;
      cleanup c;
      (match subrange with
      | None -> W.bool_ b false
      | Some s ->
        W.bool_ b true;
        range s)
    | Grant { cap; to_; rights = r; cleanup = c } ->
      op 8;
      int cap;
      int to_;
      rights r;
      cleanup c
    | Split { cap; at } ->
      op 9;
      int cap;
      int at
    | Carve { cap; subrange } ->
      op 10;
      int cap;
      range subrange
    | Revoke { cap } ->
      op 11;
      int cap
    | Call { target } ->
      op 12;
      int target
    | Return -> op 13
    | Enumerate -> op 15
    | Attest { domain; nonce } ->
      op 16;
      int domain;
      W.str b nonce));
  Buffer.contents b

let decode s =
  let bad msg = raise (W.Corrupt msg) in
  let r = W.reader s in
  let int () =
    let v = W.get_int r in
    if v < 0 then bad "negative operand" else v
  in
  let range () =
    let base = int () in
    let len = int () in
    if len = 0 then bad "empty range" else Hw.Addr.Range.make ~base ~len
  in
  let code what of_code =
    match of_code (W.get_u8 r) with Some v -> v | None -> bad ("bad " ^ what)
  in
  let rights () = code "rights" Cap.Rights.of_bits in
  let cleanup () = code "cleanup" Cap.Revocation.of_code in
  match
    let record =
      match W.get_u8 r with
      | 14 -> Evicted { core = int () }
      | op -> (
        let by = int () in
        match op with
        | 1 ->
          let name = W.get_str r in
          let kind = code "kind" Domain.kind_of_code in
          issued by (Create_domain { name; kind })
        | 2 ->
          let domain = int () in
          let entry = int () in
          issued by (Set_entry_point { domain; entry })
        | 3 ->
          let domain = int () in
          let flush = W.get_bool r in
          issued by (Set_flush_policy { domain; flush })
        | 4 ->
          let domain = int () in
          let range = range () in
          issued by (Mark_measured { domain; range })
        | 5 ->
          let domain = int () in
          let digest = W.get_str r in
          if digest <> "" && String.length digest <> Crypto.Sha256.digest_size then
            bad "bad seal digest";
          Issued { by; call = Seal { domain }; digest }
        | 6 -> issued by (Destroy { domain = int () })
        | 7 ->
          let cap = int () in
          let to_ = int () in
          let rights = rights () in
          let cleanup = cleanup () in
          let subrange = if W.get_bool r then Some (range ()) else None in
          issued by (Share { cap; to_; rights; cleanup; subrange })
        | 8 ->
          let cap = int () in
          let to_ = int () in
          let rights = rights () in
          let cleanup = cleanup () in
          issued by (Grant { cap; to_; rights; cleanup })
        | 9 ->
          let cap = int () in
          let at = int () in
          issued by (Split { cap; at })
        | 10 ->
          let cap = int () in
          let subrange = range () in
          issued by (Carve { cap; subrange })
        | 11 -> issued by (Revoke { cap = int () })
        | 12 -> issued by (Call { target = int () })
        | 13 -> issued by Return
        | 15 -> issued by Enumerate
        | 16 ->
          let domain = int () in
          let nonce = W.get_str r in
          issued by (Attest { domain; nonce })
        | n -> bad (Printf.sprintf "unknown opcode %d" n))
    in
    W.expect_end r;
    record
  with
  | record -> Ok record
  | exception W.Corrupt msg -> Error msg
  | exception Invalid_argument msg -> Error msg
