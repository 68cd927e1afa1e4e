type requirement =
  | Sealed
  | Kind_is of Tyche.Domain.kind
  | Measurement_is of Crypto.Sha256.digest
  | Region_exclusive of Hw.Addr.Range.t
  | Region_shared_only_with of Hw.Addr.Range.t * Tyche.Domain.id list
  | No_foreign_sharing_except of Tyche.Domain.id list
  | Has_core of int
  | Holds_device of int
  | Memory_encrypted

let pp_requirement fmt = function
  | Sealed -> Format.pp_print_string fmt "sealed"
  | Kind_is k -> Format.fprintf fmt "kind=%a" Tyche.Domain.pp_kind k
  | Measurement_is d -> Format.fprintf fmt "measurement=%a" Crypto.Sha256.pp d
  | Region_exclusive r -> Format.fprintf fmt "exclusive%a" Hw.Addr.Range.pp r
  | Region_shared_only_with (r, ds) ->
    Format.fprintf fmt "shared-only%a with [%s]" Hw.Addr.Range.pp r
      (String.concat ";" (List.map string_of_int ds))
  | No_foreign_sharing_except ds ->
    Format.fprintf fmt "no-foreign-sharing except [%s]"
      (String.concat ";" (List.map string_of_int ds))
  | Has_core c -> Format.fprintf fmt "has-core %d" c
  | Holds_device d -> Format.fprintf fmt "holds-device %04x" d
  | Memory_encrypted -> Format.pp_print_string fmt "memory-encrypted"

type t = requirement list

let overlapping_regions (att : Tyche.Attestation.t) range =
  List.filter
    (fun r -> Hw.Addr.Range.overlaps r.Tyche.Attestation.range range)
    att.Tyche.Attestation.regions

let check_one (att : Tyche.Attestation.t) req =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match req with
  | Sealed -> if att.sealed then Ok () else fail "domain is not sealed"
  | Kind_is k ->
    if att.kind = k then Ok ()
    else
      fail "kind is %s, wanted %s"
        (Tyche.Domain.kind_to_string att.kind)
        (Tyche.Domain.kind_to_string k)
  | Measurement_is expected -> (
    match att.measurement with
    | Some m when Crypto.Sha256.equal m expected -> Ok ()
    | Some m -> fail "measurement %s != expected %s" (Crypto.Sha256.to_hex m)
                  (Crypto.Sha256.to_hex expected)
    | None -> fail "domain reports no measurement")
  | Region_exclusive range -> (
    match overlapping_regions att range with
    | [] -> fail "no reported region overlaps %s" (Format.asprintf "%a" Hw.Addr.Range.pp range)
    | regions ->
      (match List.find_opt (fun r -> r.Tyche.Attestation.refcount <> 1) regions with
      | None -> Ok ()
      | Some r ->
        fail "region %s has refcount %d, not exclusive"
          (Format.asprintf "%a" Hw.Addr.Range.pp r.Tyche.Attestation.range)
          r.Tyche.Attestation.refcount))
  | Region_shared_only_with (range, allowed) -> (
    match overlapping_regions att range with
    | [] -> fail "no reported region overlaps %s" (Format.asprintf "%a" Hw.Addr.Range.pp range)
    | regions ->
      let bad =
        List.concat_map
          (fun r ->
            List.filter
              (fun h -> h <> att.domain && not (List.mem h allowed))
              r.Tyche.Attestation.holders)
          regions
      in
      (match bad with
      | [] -> Ok ()
      | h :: _ -> fail "region shared with unauthorized domain %d" h))
  | No_foreign_sharing_except allowed ->
    let bad =
      List.concat_map
        (fun r ->
          List.filter
            (fun h -> h <> att.domain && not (List.mem h allowed))
            r.Tyche.Attestation.holders)
        att.regions
    in
    (match bad with
    | [] -> Ok ()
    | h :: _ -> fail "some region is reachable by unauthorized domain %d" h)
  | Has_core c ->
    if List.mem_assoc c att.cores then Ok () else fail "domain holds no core %d" c
  | Holds_device d ->
    if List.mem_assoc d att.devices then Ok () else fail "domain holds no device %04x" d
  | Memory_encrypted ->
    if att.memory_encrypted then Ok ()
    else fail "domain memory is not under a private encryption key"

let check t att =
  let failures =
    List.filter_map
      (fun req ->
        match check_one att req with
        | Ok () -> None
        | Error msg -> Some (Format.asprintf "%a: %s" pp_requirement req msg))
      t
  in
  if failures = [] then Ok () else Error failures
