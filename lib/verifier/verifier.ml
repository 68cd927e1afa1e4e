module Chain = Chain
module Policy = Policy
module Topology = Topology

type reference_values = {
  tpm_root : Crypto.Sha256.digest;
  expected_pcrs : (int * Crypto.Sha256.digest) list;
  monitor_root : Crypto.Sha256.digest;
}

type decision = { trusted : bool; failures : string list }

let pp_decision fmt d =
  if d.trusted then Format.pp_print_string fmt "TRUSTED"
  else
    Format.fprintf fmt "@[<v>REJECTED:%a@]"
      (fun fmt -> List.iter (Format.fprintf fmt "@,  - %s"))
      d.failures

let establish_trust rv ~nonce ~boot_quote ~attestations =
  let boot_failures =
    match
      Chain.verify_boot ~tpm_root:rv.tpm_root ~expected_pcrs:rv.expected_pcrs
        ~claimed_monitor_root:rv.monitor_root ~nonce boot_quote
    with
    | Ok () -> []
    | Error e -> [ "boot: " ^ e ]
  in
  let domain_failures =
    List.concat_map
      (fun (att, policy) ->
        let who = Printf.sprintf "domain %d" att.Tyche.Attestation.domain in
        match Chain.verify_domain ~monitor_root:rv.monitor_root ~nonce att with
        | Error e -> [ who ^ ": " ^ e ]
        | Ok () -> (
          match Policy.check policy att with
          | Ok () -> []
          | Error msgs -> List.map (fun m -> who ^ ": " ^ m) msgs))
      attestations
  in
  let failures = boot_failures @ domain_failures in
  { trusted = failures = []; failures }

let attest_and_decide monitor rv ~nonce ~domains =
  let boot_quote = Tyche.Monitor.boot_quote monitor ~nonce in
  let attestations, fetch_failures =
    List.partition_map
      (fun (domain, policy) ->
        match Tyche.Monitor.attest monitor ~caller:Tyche.Domain.initial ~domain ~nonce with
        | Ok att -> Either.Left (att, policy)
        | Error e ->
          Either.Right
            (Printf.sprintf "domain %d: attestation unavailable: %s" domain
               (Tyche.Monitor.error_to_string e)))
      domains
  in
  let d = establish_trust rv ~nonce ~boot_quote ~attestations in
  let failures = d.failures @ fetch_failures in
  { trusted = failures = []; failures }
