(* Migration chaos: two fleet endpoints (alpha, beta) over the
   adversarial in-memory network. Each episode builds a fresh sealed
   enclave on one side — sometimes with an outbound delegation, so
   commit exercises re-homing — starts a live migration to the other,
   and then interleaves partition / reorder / duplicate / ack-loss with
   crash-restarts of either endpoint at every migration fault point
   (migrate.chunk, migrate.commit, migrate.abort) and at the underlying
   store points (snapshot.write, wal.append, wal.fsync), plus
   occasional operator aborts and background cross-machine
   delegate/revoke traffic sharing the channel.

   After heal + recovery + convergence the migration must be terminal
   and exactly one monitor hosts the domain live: Committed means the
   target hosts it thawed and fsck-verified with a verifiable transfer
   receipt while the source holds only the remote proxy; Aborted means
   the source hosts it thawed and the target holds no copy. Both
   monitors pass invariants + fsck and the fleets agree on every
   delegation. The whole schedule is deterministic from one seed
   (TYCHE_FAULT_SEED to replay); each run executes twice and the two
   transcripts must be identical. A short run rides `dune runtest`; the
   long run lives behind `dune build @migrate` (TYCHE_MIGRATE_EPISODES). *)

let base_seed = Testkit.chaos_seed ~default:0x316A7E
let os = Tyche.Domain.initial
let key = "migrate-chaos-session-key"
let page = Hw.Addr.page_size

let episodes =
  match Sys.getenv_opt "TYCHE_MIGRATE_EPISODES" with
  | Some s -> int_of_string s
  | None -> 12

let () =
  Testkit.chaos_banner ~suite:"migrate" ~seed:base_seed
    ~extra:(Printf.sprintf ", %d episodes/run (TYCHE_MIGRATE_EPISODES)" episodes)
    ()

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline (Testkit.chaos_replay_line ~suite:"migrate" ~seed:base_seed);
      prerr_endline ("FAIL: " ^ s);
      exit 1)
    fmt

type node = {
  name : string;
  store : Persist.Store.t;
  mutable monitor : Tyche.Monitor.t;
  mutable fleet : Distributed.Fleet.t;
  mutable mig : Distributed.Migrate.t;
}

let mk_node net name seed =
  let w = Testkit.boot_x86 ~seed () in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.Testkit.monitor ~store ();
  let fleet = Distributed.Fleet.create ~store ~monitor:w.Testkit.monitor ~name ~net () in
  let mig = Distributed.Migrate.attach ~fleet in
  { name; store; monitor = w.Testkit.monitor; fleet; mig }

(* Sessions, data handlers and peer attestation roots are all volatile:
   (re)establish them together, in both directions. *)
let reconnect a b =
  (match Distributed.Fleet.connect a.fleet ~peer:b.name ~key with
  | Ok _ -> ()
  | Error e -> fail "connect %s->%s: %s" a.name b.name (Distributed.Fleet.error_to_string e));
  (match Distributed.Fleet.connect b.fleet ~peer:a.name ~key with
  | Ok _ -> ()
  | Error e -> fail "connect %s->%s: %s" b.name a.name (Distributed.Fleet.error_to_string e));
  Distributed.Migrate.set_peer_root a.mig ~peer:b.name
    (Tyche.Monitor.attestation_root b.monitor);
  Distributed.Migrate.set_peer_root b.mig ~peer:a.name
    (Tyche.Monitor.attestation_root a.monitor)

(* Crash-restart: fresh machine and backend, monitor recovery from the
   store, fleet recovery from its journal, migration recovery from the
   records it shares that journal with (attach IS recovery), then the
   cross-journal audit of the recovered machine. *)
let recover net node =
  let machine =
    Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores:4 ~mem_size:(16 * 1024 * 1024) ()
  in
  let rng = Crypto.Rng.create ~seed:0x99L in
  let tpm = Rot.Tpm.create rng in
  let br =
    Rot.Boot.measured_boot tpm machine ~firmware:Testkit.firmware
      ~loader:Testkit.loader_blob ~monitor_image:Testkit.monitor_image
  in
  let backend = Backend_x86.create machine () in
  match
    Tyche.Monitor.recover machine ~store:node.store ~backend ~tpm ~rng
      ~monitor_range:br.Rot.Boot.monitor_range
  with
  | Error e -> fail "%s: recovery failed: %s" node.name e
  | Ok (m, _) ->
    node.monitor <- m;
    node.fleet <-
      Distributed.Fleet.create ~store:node.store ~monitor:m ~name:node.name ~net ();
    node.mig <- Distributed.Migrate.attach ~fleet:node.fleet;
    match Testkit.audit_recovery ~mig:node.mig node.fleet with
    | [] -> ()
    | vs -> fail "%s after recovery: %s" node.name (String.concat "; " vs)

(* The os capability containing [sub] on this node. *)
let cap_over m sub =
  let tree = Tyche.Monitor.tree m in
  List.find_opt
    (fun c ->
      match Cap.Captree.resource tree c with
      | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.includes ~outer:r ~inner:sub
      | _ -> false)
    (Tyche.Monitor.caps_of m os)

let find_by_name m name =
  List.find_opt (fun d -> Tyche.Domain.name d = name) (Tyche.Monitor.domains m)

(* Background cross-machine traffic stays in a fixed low window so it
   never collides with the per-episode enclave carve zone. *)
let bg_base = 0x20000

(* Fault points that crash the node performing the wrapped operation:
   migration journal/chunk/commit/abort tear points plus the store's
   own torn-append and lost-fsync points. *)
let crash_points =
  [| "migrate.chunk"; "migrate.commit"; "migrate.abort";
     "snapshot.write"; "wal.append"; "wal.fsync" |]

let soft_points = [| "fleet.deliver"; "fleet.ack"; "fleet.partition" |]

let run ~seed =
  Fault.reset_counters ();
  let rng = Random.State.make [| seed; 0x316A7E |] in
  let net = Distributed.Network.create () in
  let a = mk_node net "alpha" 0x71L in
  let b = mk_node net "beta" 0x72L in
  reconnect a b;
  let transcript = ref [] in
  let trace = Sys.getenv_opt "TYCHE_MIGRATE_TRACE" <> None in
  let say fmt =
    Printf.ksprintf
      (fun s ->
        if trace then prerr_endline ("| " ^ s);
        transcript := s :: !transcript)
      fmt
  in
  let crashes = ref 0 in

  let maybe_crash node other p f =
    if Random.State.int rng p = 0 then begin
      let point = crash_points.(Random.State.int rng (Array.length crash_points)) in
      match Fault.with_plan (Fault.nth point 1) f with
      | _ -> "nocrash:" ^ point
      | exception Persist.Store.Crash _ ->
        incr crashes;
        recover net node;
        reconnect node other;
        let { Persist.Wal.records; truncated; _ } =
          Persist.Wal.read node.store ~blob:"fleet"
        in
        Printf.sprintf "crash:%s (journal %d records%s; replayed: %s)" point
          (List.length records)
          (if truncated then " TORN" else "")
          (String.concat ","
             (List.map
                (fun (id, _, ph) ->
                  id ^ "=" ^ Format.asprintf "%a" Distributed.Migrate.pp_phase ph)
                (Distributed.Migrate.migrations node.mig)))
    end
    else
      match f () with _ -> "ok" | exception Persist.Store.Crash p -> "unexpected:" ^ p
  in

  let pump_one n =
    Distributed.Fleet.tick n.fleet;
    ignore (Distributed.Fleet.poll n.fleet);
    Distributed.Migrate.tick n.mig
  in

  let adversary ep =
    match Random.State.int rng 6 with
    | 0 ->
      Distributed.Network.partition net a.name b.name;
      say "ep %d: partition" ep
    | 1 ->
      Distributed.Network.heal net a.name b.name;
      say "ep %d: heal" ep
    | 2 ->
      let target = if Random.State.bool rng then a.name else b.name in
      let r = Distributed.Network.reorder net target ~seed:(Random.State.int rng 10000) in
      say "ep %d: reorder %s = %b" ep target r
    | 3 ->
      let target = if Random.State.bool rng then a.name else b.name in
      let r = Distributed.Network.duplicate net target ~seed:(Random.State.int rng 10000) in
      say "ep %d: duplicate %s = %b" ep target r
    | 4 ->
      let target = if Random.State.bool rng then a.name else b.name in
      let r = Distributed.Network.drop_head net target in
      say "ep %d: drop_head %s = %b" ep target r
    | _ -> say "ep %d: adversary idle" ep
  in

  (* Background os-level delegate/revoke sharing the channel with the
     migration stream, exercising interleaved sequencing. *)
  let bg_op ep (x, y) =
    if Random.State.bool rng then begin
      let pg = Random.State.int rng 16 in
      let sub = Hw.Addr.Range.make ~base:(bg_base + (pg * page)) ~len:page in
      match cap_over x.monitor sub with
      | None -> say "ep %d: bg delegate %s (no cap)" ep x.name
      | Some cap ->
        let tag =
          match
            Distributed.Fleet.delegate x.fleet ~caller:os ~cap ~peer:y.name
              ~subrange:sub ~rights:Cap.Rights.read_only ()
          with
          | Ok id -> string_of_int id
          | Error e -> "err:" ^ Distributed.Fleet.error_to_string e
        in
        say "ep %d: bg delegate %s->%s page %d = %s" ep x.name y.name pg tag
    end
    else
      let actives =
        List.filter
          (fun d ->
            d.Distributed.Fleet.del_state = Distributed.Fleet.Active
            && d.Distributed.Fleet.del_base < 0x400000)
          (Distributed.Fleet.delegations x.fleet)
      in
      match actives with
      | [] -> say "ep %d: bg revoke %s (none)" ep x.name
      | l ->
        let d = List.nth l (Random.State.int rng (List.length l)) in
        let tag =
          match
            Distributed.Fleet.revoke x.fleet ~caller:os ~cap:d.Distributed.Fleet.proxy_cap
          with
          | Ok () -> "ok"
          | Error e -> "err:" ^ Distributed.Fleet.error_to_string e
        in
        say "ep %d: bg revoke %s del %d = %s" ep x.name d.Distributed.Fleet.del_id tag
  in

  let converge ep =
    Distributed.Network.heal_all net;
    let idle () =
      Distributed.Fleet.idle a.fleet && Distributed.Fleet.idle b.fleet
      && Distributed.Migrate.idle a.mig && Distributed.Migrate.idle b.mig
    in
    let rounds = ref 0 in
    while (not (idle ())) && !rounds < 600 do
      incr rounds;
      pump_one a;
      pump_one b
    done;
    if not (idle ()) then begin
      List.iter
        (fun n ->
          List.iter
            (fun (id, role, ph) ->
              Printf.eprintf "--- %s %s %s: %s\n" n.name id
                (match role with Distributed.Migrate.Source -> "src" | _ -> "tgt")
                (Format.asprintf "%a" Distributed.Migrate.pp_phase ph))
            (Distributed.Migrate.migrations n.mig))
        [ a; b ];
      fail "ep %d: no convergence after %d rounds" ep !rounds
    end;
    say "ep %d: converged rounds=%d" ep !rounds
  in

  let check_clean ep node =
    (match Tyche.Invariants.check_all node.monitor with
    | [] -> ()
    | vs ->
      fail "ep %d: %s invariant violations: %s" ep node.name
        (String.concat "; "
           (List.map (Format.asprintf "%a" Tyche.Invariants.pp_violation) vs)));
    let fr = Tyche.Fsck.check node.monitor in
    if not (Tyche.Fsck.ok fr) then
      fail "ep %d: %s fsck: %s" ep node.name (Format.asprintf "%a" Tyche.Fsck.pp fr)
  in

  (* Importer/exporter agreement on every delegation, both directions. *)
  let check_agreement ep (x, y) =
    List.iter
      (fun (d : Distributed.Fleet.delegation) ->
        match d.Distributed.Fleet.del_state with
        | Distributed.Fleet.Revoking ->
          fail "ep %d: %s delegation %d stuck Revoking" ep x.name d.Distributed.Fleet.del_id
        | Distributed.Fleet.Revoked ->
          if
            List.exists
              (fun i ->
                i.Distributed.Fleet.imp_origin = x.name
                && i.Distributed.Fleet.imp_del_id = d.Distributed.Fleet.del_id)
              (Distributed.Fleet.imports y.fleet)
          then
            fail "ep %d: revoked delegation %d still imported on %s" ep
              d.Distributed.Fleet.del_id y.name
        | Distributed.Fleet.Active ->
          if
            not
              (List.exists
                 (fun i ->
                   i.Distributed.Fleet.imp_origin = x.name
                   && i.Distributed.Fleet.imp_del_id = d.Distributed.Fleet.del_id
                   && i.Distributed.Fleet.imp_base = d.Distributed.Fleet.del_base
                   && i.Distributed.Fleet.imp_len = d.Distributed.Fleet.del_len)
                 (Distributed.Fleet.imports y.fleet))
          then
            fail "ep %d: delegation %d from %s missing on %s" ep
              d.Distributed.Fleet.del_id x.name y.name)
      (Distributed.Fleet.delegations x.fleet);
    if Distributed.Fleet.pending_revokes x.fleet <> [] then
      fail "ep %d: %s pending revocations after convergence" ep x.name
  in

  for ep = 1 to episodes do
    let name = Printf.sprintf "mig%03d" ep in
    let base = 0x400000 + ((ep - 1) * 4 * page) in
    let x, y = if Random.State.bool rng then (a, b) else (b, a) in
    say "ep %d: enclave %s on %s at %#x -> %s" ep name x.name base y.name;
    (* Build a fresh sealed enclave: two pages, first carries content. *)
    let d =
      match
        Tyche.Monitor.create_domain x.monitor ~caller:os ~name ~kind:Tyche.Domain.Enclave
      with
      | Ok d -> d
      | Error e -> fail "ep %d: create: %s" ep (Tyche.Monitor.error_to_string e)
    in
    let sub = Hw.Addr.Range.make ~base ~len:(2 * page) in
    let ok_m what = function
      | Ok v -> v
      | Error e -> fail "ep %d: %s: %s" ep what (Tyche.Monitor.error_to_string e)
    in
    let donor =
      match cap_over x.monitor sub with
      | Some c -> c
      | None -> fail "ep %d: no os cap over %#x" ep base
    in
    let piece = ok_m "carve" (Tyche.Monitor.carve x.monitor ~caller:os ~cap:donor ~subrange:sub) in
    ok_m "store" (Tyche.Monitor.store_string x.monitor ~core:0 base (name ^ "-content"));
    let granted =
      ok_m "grant"
        (Tyche.Monitor.grant x.monitor ~caller:os ~cap:piece ~to_:d
           ~rights:Cap.Rights.full ~cleanup:Cap.Revocation.Zero_and_flush)
    in
    ok_m "entry" (Tyche.Monitor.set_entry_point x.monitor ~caller:os ~domain:d base);
    ok_m "measure" (Tyche.Monitor.mark_measured x.monitor ~caller:os ~domain:d sub);
    ok_m "seal" (Tyche.Monitor.seal x.monitor ~caller:os ~domain:d);
    (* Sometimes the enclave delegates its first page before moving, so
       commit has a delegation to re-home (revoke at-least-once). *)
    let delegated =
      Random.State.int rng 3 = 0
      &&
      match
        Distributed.Fleet.delegate x.fleet ~caller:d ~cap:granted ~peer:y.name
          ~subrange:(Hw.Addr.Range.make ~base ~len:page)
          ~rights:Cap.Rights.read_only ()
      with
      | Ok _ -> true
      | Error e ->
        say "ep %d: pre-delegate failed: %s" ep (Distributed.Fleet.error_to_string e);
        false
    in
    if delegated then say "ep %d: enclave delegated page 0 to %s" ep y.name;
    let mig =
      match Distributed.Migrate.start x.mig ~domain:d ~peer:y.name with
      | Ok m -> m
      | Error e -> fail "ep %d: start: %s" ep (Distributed.Migrate.error_to_string e)
    in
    (* Interleave faults, crashes, aborts and background traffic. *)
    let steps = 4 + Random.State.int rng 8 in
    for _ = 1 to steps do
      match Random.State.int rng 10 with
      | 0 | 1 -> adversary ep
      | 2 | 3 ->
        let n, o = if Random.State.bool rng then (a, b) else (b, a) in
        let tag = maybe_crash n o 3 (fun () -> pump_one n) in
        say "ep %d: pump %s = %s" ep n.name tag
      | 4 ->
        let point = soft_points.(Random.State.int rng (Array.length soft_points)) in
        let n = if Random.State.bool rng then a else b in
        Fault.with_plan (Fault.nth point 1) (fun () -> pump_one n);
        say "ep %d: soft-fault %s on %s" ep point n.name
      | 5 when Random.State.int rng 4 = 0 ->
        let live =
          match Distributed.Migrate.status x.mig ~mig with
          | Some (_, Distributed.Migrate.Committed)
          | Some (_, Distributed.Migrate.Aborted _) -> false
          | Some _ -> true
          | None -> false
        in
        if live then begin
          let tag =
            maybe_crash x y 3 (fun () ->
                match Distributed.Migrate.abort x.mig ~mig ~reason:"chaos operator" with
                | Ok () -> "ok"
                | Error e -> "err:" ^ Distributed.Migrate.error_to_string e)
          in
          say "ep %d: abort = %s" ep tag
        end
        else say "ep %d: abort skipped (terminal)" ep
      | 6 -> bg_op ep (if Random.State.bool rng then (a, b) else (b, a))
      | _ ->
        pump_one a;
        pump_one b;
        say "ep %d: step" ep
    done;
    converge ep;
    (* Exactly one monitor hosts the domain live. *)
    (match Distributed.Migrate.status x.mig ~mig with
    | Some (Distributed.Migrate.Source, Distributed.Migrate.Committed) ->
      say "ep %d: outcome committed" ep;
      (match Distributed.Migrate.status y.mig ~mig with
      | Some (Distributed.Migrate.Target, Distributed.Migrate.Live) -> ()
      | st ->
        fail "ep %d: source committed but target not live (target=%s)" ep
          (match st with
          | None -> "none"
          | Some (_, ph) -> Format.asprintf "%a" Distributed.Migrate.pp_phase ph));
      (match find_by_name y.monitor name with
      | None -> fail "ep %d: committed but %s absent on %s" ep name y.name
      | Some dom ->
        if not (Tyche.Domain.is_sealed dom) then fail "ep %d: adopted copy unsealed" ep);
      let ad =
        match Distributed.Migrate.domain y.mig ~mig with
        | Some id -> id
        | None -> fail "ep %d: no adopted domain id" ep
      in
      if Tyche.Monitor.domain_frozen y.monitor ~domain:ad then
        fail "ep %d: adopted copy still frozen" ep;
      if find_by_name x.monitor name <> None then
        fail "ep %d: committed but source still hosts %s" ep name;
      (match find_by_name x.monitor (Printf.sprintf "remote:%s:%s" y.name name) with
      | Some p when Tyche.Domain.kind p = Tyche.Domain.Remote -> ()
      | _ -> fail "ep %d: committed but no remote proxy on %s" ep x.name);
      if not (Distributed.Migrate.verify_receipt y.mig ~mig) then
        fail "ep %d: transfer receipt does not verify" ep
    | Some (Distributed.Migrate.Source, Distributed.Migrate.Aborted _) ->
      say "ep %d: outcome aborted" ep;
      (match find_by_name x.monitor name with
      | None -> fail "ep %d: aborted but %s lost on %s" ep name x.name
      | Some dom ->
        let id = Tyche.Domain.id dom in
        if Tyche.Monitor.domain_frozen x.monitor ~domain:id then
          fail "ep %d: aborted but %s still frozen" ep name);
      if find_by_name y.monitor name <> None then
        fail "ep %d: aborted but a copy of %s survives on %s" ep name y.name;
      (match Distributed.Migrate.status y.mig ~mig with
      | None | Some (_, Distributed.Migrate.Aborted _) -> ()
      | Some (_, ph) ->
        fail "ep %d: source aborted but target is %s" ep
          (Format.asprintf "%a" Distributed.Migrate.pp_phase ph))
    | Some (_, ph) ->
      fail "ep %d: migration not terminal after convergence: %s" ep
        (Format.asprintf "%a" Distributed.Migrate.pp_phase ph)
    | None -> fail "ep %d: source forgot migration %s" ep mig);
    check_clean ep a;
    check_clean ep b;
    check_agreement ep (a, b);
    check_agreement ep (b, a)
  done;
  say "final: crashes=%d migrations a=%d b=%d net(drop=%d dup=%d reord=%d part=%d)"
    !crashes
    (List.length (Distributed.Migrate.migrations a.mig))
    (List.length (Distributed.Migrate.migrations b.mig))
    (Distributed.Network.dropped net)
    (Distributed.Network.duplicated net)
    (Distributed.Network.reordered net)
    (Distributed.Network.partition_drops net);
  Testkit.chaos_check_obs ~suite:"migrate" ~seed:base_seed ~where:"end of run";
  List.rev !transcript

let () =
  let t1 = run ~seed:base_seed in
  let t2 = run ~seed:base_seed in
  if t1 <> t2 then begin
    let rec first_diff i = function
      | x :: xs, y :: ys -> if x <> y then Some (i, x, y) else first_diff (i + 1) (xs, ys)
      | [], [] -> None
      | _ -> Some (i, "<length>", "<mismatch>")
    in
    (match first_diff 0 (t1, t2) with
    | Some (i, x, y) -> Printf.eprintf "transcript diverges at %d:\n  %s\n  %s\n" i x y
    | None -> ());
    fail "two runs from seed %d produced different transcripts" base_seed
  end;
  Printf.printf "migrate chaos: %d episodes x2 runs OK (%d transcript lines)\n%!" episodes
    (List.length t1)
