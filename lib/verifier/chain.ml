let ( let* ) = Result.bind

let expected_key_binding_pcr roots =
  List.fold_left (fun pcr root -> Crypto.Sha256.concat [ pcr; root ]) Crypto.Sha256.zero roots

let verify_boot_chain ~tpm_root ~expected_pcrs ~bound ~nonce quote =
  let* () =
    if Rot.Tpm.Quote.verify ~root:tpm_root quote then Ok ()
    else Error "quote signature does not verify under the TPM endorsement root"
  in
  let* () =
    if String.equal quote.Rot.Tpm.Quote.nonce nonce then Ok ()
    else Error "quote nonce mismatch (replay?)"
  in
  let quoted pcr = List.assoc_opt pcr quote.Rot.Tpm.Quote.pcr_values in
  let* () =
    List.fold_left
      (fun acc (pcr, expected) ->
        let* () = acc in
        match quoted pcr with
        | Some actual when Crypto.Sha256.equal actual expected -> Ok ()
        | Some actual ->
          Error
            (Printf.sprintf "PCR %d is %s, expected %s" pcr (Crypto.Sha256.to_hex actual)
               (Crypto.Sha256.to_hex expected))
        | None -> Error (Printf.sprintf "quote does not cover PCR %d" pcr))
      (Ok ()) expected_pcrs
  in
  match quoted Tyche.Monitor.key_binding_pcr with
  | Some actual
    when Crypto.Sha256.equal actual (expected_key_binding_pcr bound) -> Ok ()
  | Some _ -> Error "PCR 18 does not bind the claimed monitor attestation key"
  | None -> Error "quote does not cover the key-binding PCR"

let verify_boot ~tpm_root ~expected_pcrs ~claimed_monitor_root ~nonce quote =
  verify_boot_chain ~tpm_root ~expected_pcrs ~bound:[ claimed_monitor_root ] ~nonce quote

let verify_domain ~monitor_root ~nonce att =
  let* () =
    if Tyche.Attestation.verify ~monitor_root att then Ok ()
    else Error "attestation signature does not verify under the monitor root"
  in
  if String.equal att.Tyche.Attestation.nonce nonce then Ok ()
  else Error "attestation nonce mismatch (replay?)"
