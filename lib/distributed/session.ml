type evidence = {
  quote : Rot.Tpm.Quote.t;
  attestation : Tyche.Attestation.t;
}

let gather_evidence monitor ~domain ~nonce =
  Obs.Profile.span ~domain "session.gather_evidence" @@ fun () ->
  match Tyche.Monitor.attest monitor ~caller:Tyche.Domain.initial ~domain ~nonce with
  | Error e -> Error (Tyche.Monitor.error_to_string e)
  | Ok attestation -> Ok { quote = Tyche.Monitor.boot_quote monitor ~nonce; attestation }

type party = {
  name : Network.endpoint;
  reference : Verifier.reference_values;
  policy : Verifier.Policy.t;
}

let verify_party ~nonce (party, ev) =
  let boot =
    Verifier.Chain.verify_boot ~tpm_root:party.reference.Verifier.tpm_root
      ~expected_pcrs:party.reference.Verifier.expected_pcrs
      ~claimed_monitor_root:party.reference.Verifier.monitor_root ~nonce ev.quote
  in
  let tier2 =
    Verifier.Chain.verify_domain ~monitor_root:party.reference.Verifier.monitor_root ~nonce
      ev.attestation
  in
  let policy = Verifier.Policy.check party.policy ev.attestation in
  List.filter_map
    (fun r ->
      match r with
      | Ok () -> None
      | Error msg -> Some (party.name ^ ": " ^ msg))
    [ boot; tier2 ]
  @
  match policy with
  | Ok () -> []
  | Error msgs -> List.map (fun m -> party.name ^ ": " ^ m) msgs

let establish ~nonce ~a ~b =
  match verify_party ~nonce a @ verify_party ~nonce b with
  | [] ->
    let _, ev_a = a and _, ev_b = b in
    let m_of ev =
      match ev.attestation.Tyche.Attestation.measurement with
      | Some m -> Crypto.Sha256.to_raw m
      | None -> "unmeasured"
    in
    (* Bind the key to both identities and the freshness nonce. *)
    let key =
      Crypto.Hmac.derive ~key:(m_of ev_a ^ m_of ev_b) ~label:("session:" ^ nonce)
    in
    Ok (key, key)
  | failures -> Error failures

type establish_error =
  | Rejected of string list
  | Timeout of { attempts : int; waited : int }

let establish_error_to_string = function
  | Rejected reasons -> "rejected: " ^ String.concat "; " reasons
  | Timeout { attempts; waited } ->
    Printf.sprintf "timed out after %d attempts (%d backoff units waited)" attempts waited

(* Attested establishment over a lossy network: each side ships its
   attestation bytes to the broker, which retries lost or mangled
   exchanges with capped exponential backoff. Only *delivery* is
   retried — a cryptographic verification failure is deterministic
   (resending identical evidence cannot change the verdict), so it
   rejects immediately. The TPM quotes travel the machine-local attested
   path (see the module doc) and are taken from [a]/[b] directly. *)
let max_attempts = 5
let max_backoff = 8

let establish_over net ~broker ?(adversary = fun _ -> ()) ~nonce ~a ~b () =
  let party_a, ev_a = a and party_b, ev_b = b in
  (* One trace id spans the whole establishment: every retry, drain and
     verification event across both monitors' evidence carries it, so a
     trace dump shows the cross-machine exchange as one causal chain. *)
  Obs.with_trace (Obs.new_trace ()) @@ fun () ->
  Obs.Profile.span "session.establish" @@ fun () ->
  let rec attempt n ~backoff ~waited =
    if n > max_attempts then begin
      Obs.instant "session.timeout";
      Error (Timeout { attempts = max_attempts; waited })
    end
    else begin
      Obs.instant "session.attempt";
      (* Drain stale datagrams from a previous partial exchange so a
         late duplicate cannot be mistaken for this round's evidence. *)
      while Network.recv net broker <> None do () done;
      Network.send net ~from_:party_a.name ~to_:broker
        (Tyche.Attestation.to_wire ev_a.attestation);
      Network.send net ~from_:party_b.name ~to_:broker
        (Tyche.Attestation.to_wire ev_b.attestation);
      adversary n;
      let received =
        match Network.recv net broker, Network.recv net broker with
        | Some wire_a, Some wire_b -> (
          match Tyche.Attestation.of_wire wire_a, Tyche.Attestation.of_wire wire_b with
          | Ok att_a, Ok att_b -> Some (att_a, att_b)
          | _ -> None (* tampered in flight: indistinguishable from loss *))
        | _ -> None (* dropped in flight *)
      in
      match received with
      | None ->
        Obs.Metrics.incr (Obs.Metrics.counter "session.retries");
        attempt (n + 1) ~backoff:(min (backoff * 2) max_backoff) ~waited:(waited + backoff)
      | Some (att_a, att_b) -> (
        match
          establish ~nonce
            ~a:(party_a, { ev_a with attestation = att_a })
            ~b:(party_b, { ev_b with attestation = att_b })
        with
        | Ok keys ->
          Obs.Metrics.incr (Obs.Metrics.counter "session.established");
          Ok (keys, n)
        | Error reasons ->
          Obs.Metrics.incr (Obs.Metrics.counter "session.rejected");
          Error (Rejected reasons))
    end
  in
  attempt 1 ~backoff:1 ~waited:0

type link = {
  net : Network.t;
  local : Network.endpoint;
  remote : Network.endpoint;
  key : string;
  mutable next_send : int;
  mutable last_recv : int;
  mutable sent : int;
  mutable received : int;
}

let connect net ~local ~remote ~key =
  { net; local; remote; key; next_send = 1; last_recv = 0; sent = 0; received = 0 }

let frame ~key ~seq payload =
  let buf = Buffer.create (String.length payload + 44) in
  Buffer.add_int64_be buf (Int64.of_int seq);
  Buffer.add_int32_be buf (Int32.of_int (String.length payload));
  Buffer.add_string buf payload;
  let mac =
    Crypto.Hmac.mac ~key (Printf.sprintf "%d|%s" seq payload)
  in
  Buffer.add_string buf (Crypto.Sha256.to_raw mac);
  Buffer.contents buf

let parse_frame raw =
  if String.length raw < 8 + 4 + 32 then Error "short frame"
  else begin
    let seq = Int64.to_int (String.get_int64_be raw 0) in
    let len = Int32.to_int (String.get_int32_be raw 8) in
    if len < 0 || 12 + len + 32 <> String.length raw then Error "bad frame length"
    else begin
      let payload = String.sub raw 12 len in
      let mac = String.sub raw (12 + len) 32 in
      Ok (seq, payload, mac)
    end
  end

let send link payload =
  let seq = link.next_send in
  link.next_send <- seq + 1;
  link.sent <- link.sent + 1;
  Network.send link.net ~from_:link.local ~to_:link.remote (frame ~key:link.key ~seq payload)

type recv_error =
  | Tampered
  | Stale of { seq : int; last : int }
  | Closed
  | Decode of string

let recv_error_to_string = function
  | Tampered -> "authentication failed (forged or tampered frame)"
  | Stale { seq; last } ->
    Printf.sprintf
      "stale frame: seq %d at or below last accepted %d (replayed by the adversary, or \
       legitimately reordered behind a later delivery)"
      seq last
  | Closed -> "no datagram pending"
  | Decode e -> "malformed frame: " ^ e

let recv link =
  match Network.recv link.net link.local with
  | None -> Error Closed
  | Some raw -> (
    match parse_frame raw with
    | Error e -> Error (Decode e)
    | Ok (seq, payload, mac) ->
      if
        not
          (Crypto.Hmac.verify ~key:link.key
             (Printf.sprintf "%d|%s" seq payload)
             (Crypto.Sha256.of_raw mac))
      then Error Tampered
      else if seq <= link.last_recv then
        (* The MAC verified but the sequence number is at or below the
           last accepted one. Cryptographically indistinguishable cases:
           an adversary re-injected an old frame, or {!Network.reorder}
           delivered a later frame first and this is the skipped
           predecessor arriving late. Typed separately from [Tampered]
           so callers can count reorder-induced loss apart from
           forgery. *)
        begin
          Obs.Metrics.incr (Obs.Metrics.counter "session.stale");
          Error (Stale { seq; last = link.last_recv })
        end
      else begin
        link.last_recv <- seq;
        link.received <- link.received + 1;
        Ok payload
      end)

let sent link = link.sent
let received link = link.received
