(* Distributed chaos: two fleet endpoints (alpha, beta) over the
   adversarial in-memory network, driven through seeded episodes of
   partition / reorder / duplicate / ack-loss plus crash-restarts of
   either endpoint mid-delegation and mid-revocation (torn fleet-journal
   appends, torn monitor WAL appends, lost fsyncs). After every episode
   the partition heals and both sides pump to convergence; then both
   monitors must pass invariants + fsck, and the two fleets must agree
   exactly on every delegated cap — the importer's import table matches
   the exporter's delegation table field for field, the exporter's
   proxy-domain caps are exactly the delegations (frozen, present in the
   holders lists), and nothing is pending. No cap leaked, no revocation
   lost.

   The whole schedule is deterministic from one seed (TYCHE_FAULT_SEED
   to replay); each run executes twice and the two transcripts must be
   identical. Plain executable: a short run rides `dune runtest`, the
   long run lives behind `dune build @fleet` (TYCHE_FLEET_EPISODES). *)

let base_seed = Testkit.chaos_seed ~default:0xF1E7
let os = Tyche.Domain.initial
let key = "fleet-chaos-session-key"

let episodes =
  match Sys.getenv_opt "TYCHE_FLEET_EPISODES" with
  | Some s -> int_of_string s
  | None -> 60

let () =
  Testkit.chaos_banner ~suite:"fleet" ~seed:base_seed
    ~extra:(Printf.sprintf ", %d episodes/run (TYCHE_FLEET_EPISODES)" episodes)
    ()

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline (Testkit.chaos_replay_line ~suite:"fleet" ~seed:base_seed);
      prerr_endline ("FAIL: " ^ s);
      exit 1)
    fmt

type node = {
  name : string;
  store : Persist.Store.t;
  mutable monitor : Tyche.Monitor.t;
  mutable fleet : Distributed.Fleet.t;
  (* Caps created by local background shares, for local revocation. *)
  mutable local_shares : Cap.Captree.cap_id list;
}

let mk_node net name seed =
  let w = Testkit.boot_x86 ~seed () in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.Testkit.monitor ~store ();
  let fleet = Distributed.Fleet.create ~store ~monitor:w.Testkit.monitor ~name ~net () in
  { name; store; monitor = w.Testkit.monitor; fleet; local_shares = [] }

let reconnect a b =
  (match Distributed.Fleet.connect a.fleet ~peer:b.name ~key with
  | Ok _ -> ()
  | Error e -> fail "connect %s->%s: %s" a.name b.name (Distributed.Fleet.error_to_string e));
  match Distributed.Fleet.connect b.fleet ~peer:a.name ~key with
  | Ok _ -> ()
  | Error e -> fail "connect %s->%s: %s" b.name a.name (Distributed.Fleet.error_to_string e)

(* Crash-restart: fresh machine and backend, monitor recovery from the
   store, fleet recovery from the journal in the same store, then the
   cross-journal audit of the recovered machine. *)
let recover net node =
  let machine = Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores:4 ~mem_size:(16 * 1024 * 1024) () in
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
    node.local_shares <- [];
    match Testkit.audit_recovery node.fleet with
    | [] -> ()
    | vs -> fail "%s after recovery: %s" node.name (String.concat "; " vs)

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))

(* The OS's largest memory capability on this node. *)
let big_cap m =
  let tree = Tyche.Monitor.tree m in
  let size c =
    match Cap.Captree.resource tree c with
    | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.len r
    | _ -> 0
  in
  match Tyche.Monitor.caps_of m os with
  | [] -> fail "domain 0 holds no capabilities"
  | caps ->
    List.fold_left (fun best c -> if size c > size best then c else best) (List.hd caps) caps

let page_of m ~page =
  let tree = Tyche.Monitor.tree m in
  let cap = big_cap m in
  match Cap.Captree.resource tree cap with
  | Some (Cap.Resource.Memory r) ->
    let pages = Hw.Addr.Range.len r / Hw.Addr.page_size in
    let sub =
      Hw.Addr.Range.make
        ~base:(Hw.Addr.Range.base r + (page mod pages * Hw.Addr.page_size))
        ~len:Hw.Addr.page_size
    in
    (cap, sub)
  | _ -> fail "big cap not memory"

let rights_pool = [| Cap.Rights.rw; Cap.Rights.read_only; Cap.Rights.rx |]

(* Fault points that crash the node performing the wrapped operation:
   the fleet journal append tears (snapshot.write routes mem-store
   appends of the "fleet" blob), or the monitor's own WAL dies under
   the share/revoke inside the fleet call. *)
let crash_points = [| "snapshot.write"; "wal.append"; "wal.fsync" |]

(* Non-fatal delivery faults on the fleet's own points. *)
let soft_points = [| "fleet.deliver"; "fleet.ack"; "fleet.partition" |]

let run ~seed =
  Fault.reset_counters ();
  let rng = Random.State.make [| seed; 0xF1EE7 |] in
  let net = Distributed.Network.create () in
  let a = mk_node net "alpha" 0x71L in
  let b = mk_node net "beta" 0x72L in
  reconnect a b;
  let transcript = ref [] in
  let say fmt = Printf.ksprintf (fun s -> transcript := s :: !transcript) fmt in
  let crashes = ref 0 in

  (* Run [f] with a 1-in-[p] chance of a crash plan armed; on crash,
     restart [node] and re-key both directions. Returns a transcript tag
     for determinism checking. *)
  let maybe_crash node other p f =
    if Random.State.int rng p = 0 then begin
      let point = crash_points.(Random.State.int rng (Array.length crash_points)) in
      match Fault.with_plan (Fault.nth point 1) f with
      | _ -> "nocrash:" ^ point
      | exception Persist.Store.Crash _ ->
        incr crashes;
        recover net node;
        reconnect node other;
        "crash:" ^ point
    end
    else
      match f () with _ -> "ok" | exception Persist.Store.Crash p -> "unexpected:" ^ p
  in

  let fleet_op ep (x, y) =
    match Random.State.int rng 10 with
    | 0 | 1 | 2 -> (
      let page = Random.State.int rng 64 in
      let rights = rights_pool.(Random.State.int rng (Array.length rights_pool)) in
      let tag =
        maybe_crash x y 6 (fun () ->
            let cap, sub = page_of x.monitor ~page in
            match
              Distributed.Fleet.delegate x.fleet ~caller:os ~cap ~peer:y.name
                ~subrange:sub ~rights ()
            with
            | Ok id -> string_of_int id
            | Error e -> "err:" ^ Distributed.Fleet.error_to_string e)
      in
      say "ep %d: delegate %s->%s page %d = %s" ep x.name y.name page tag)
    | 3 | 4 -> (
      let actives =
        List.filter
          (fun d -> d.Distributed.Fleet.del_state = Distributed.Fleet.Active)
          (Distributed.Fleet.delegations x.fleet)
      in
      match pick rng actives with
      | None -> say "ep %d: revoke %s (none)" ep x.name
      | Some d ->
        let tag =
          maybe_crash x y 6 (fun () ->
              match
                Distributed.Fleet.revoke x.fleet ~caller:os
                  ~cap:d.Distributed.Fleet.proxy_cap
              with
              | Ok () -> "ok"
              | Error e -> "err:" ^ Distributed.Fleet.error_to_string e)
        in
        say "ep %d: revoke %s del %d = %s" ep x.name d.Distributed.Fleet.del_id tag)
    | 5 -> (
      (* Background local mutation: a share to a sandbox, sometimes a
         local revocation of an earlier one — exercising freeze
         interplay and keeping the WAL busy between fleet records. *)
      let page = Random.State.int rng 64 in
      match
        let cap, sub = page_of x.monitor ~page in
        let sbx =
          match
            Tyche.Monitor.create_domain x.monitor ~caller:os
              ~name:(Printf.sprintf "sbx%d" (Random.State.int rng 1000))
              ~kind:Tyche.Domain.Sandbox
          with
          | Ok d -> d
          | Error _ -> os
        in
        Tyche.Monitor.share x.monitor ~caller:os ~cap ~to_:sbx
          ~rights:Cap.Rights.read_only ~cleanup:Cap.Revocation.Keep ~subrange:sub ()
      with
      | Ok c ->
        x.local_shares <- c :: x.local_shares;
        say "ep %d: local share %s page %d = %d" ep x.name page c
      | Error e -> say "ep %d: local share %s = err:%s" ep x.name (Tyche.Monitor.error_to_string e))
    | 6 -> (
      match x.local_shares with
      | [] -> say "ep %d: local revoke %s (none)" ep x.name
      | c :: rest ->
        x.local_shares <- rest;
        let r =
          match Tyche.Monitor.revoke x.monitor ~caller:os ~cap:c with
          | Ok () -> "ok"
          | Error e -> "err:" ^ Tyche.Monitor.error_to_string e
        in
        say "ep %d: local revoke %s cap %d = %s" ep x.name c r)
    | 7 -> (
      (* Receiver-side crash mid-apply: the import/unimport journal
         record tears before the ack leaves. *)
      let tag = maybe_crash x y 4 (fun () -> string_of_int (Distributed.Fleet.poll x.fleet)) in
      say "ep %d: poll %s = %s" ep x.name tag)
    | 8 ->
      let point = soft_points.(Random.State.int rng (Array.length soft_points)) in
      Fault.with_plan (Fault.nth point 1) (fun () ->
          Distributed.Fleet.tick x.fleet;
          ignore (Distributed.Fleet.poll x.fleet));
      say "ep %d: soft-fault %s on %s" ep point x.name
    | _ ->
      Distributed.Fleet.tick x.fleet;
      ignore (Distributed.Fleet.poll x.fleet);
      say "ep %d: step %s" ep x.name
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

  let check_agreement ep (x, y) =
    (* Exporter x vs importer y, after convergence. *)
    let tree = Tyche.Monitor.tree x.monitor in
    let dels = Distributed.Fleet.delegations x.fleet in
    List.iter
      (fun (d : Distributed.Fleet.delegation) ->
        if d.Distributed.Fleet.del_state <> Distributed.Fleet.Active then
          fail "ep %d: %s delegation %d not Active after convergence" ep x.name
            d.Distributed.Fleet.del_id;
        let imp =
          List.find_opt
            (fun i ->
              i.Distributed.Fleet.imp_origin = x.name
              && i.Distributed.Fleet.imp_del_id = d.Distributed.Fleet.del_id)
            (Distributed.Fleet.imports y.fleet)
        in
        (match imp with
        | None ->
          fail "ep %d: delegation %d from %s missing on %s (lost delegation)" ep
            d.Distributed.Fleet.del_id x.name y.name
        | Some i ->
          if
            i.Distributed.Fleet.imp_base <> d.Distributed.Fleet.del_base
            || i.Distributed.Fleet.imp_len <> d.Distributed.Fleet.del_len
            || i.Distributed.Fleet.imp_rights <> d.Distributed.Fleet.del_rights
          then fail "ep %d: delegation %d diverges between %s and %s" ep
                 d.Distributed.Fleet.del_id x.name y.name);
        (* The exporter's tree must carry the remote holder, frozen. *)
        if not (Cap.Captree.is_frozen tree d.Distributed.Fleet.proxy_cap) then
          fail "ep %d: %s proxy cap %d not frozen" ep x.name d.Distributed.Fleet.proxy_cap;
        let range =
          Hw.Addr.Range.make ~base:d.Distributed.Fleet.del_base
            ~len:d.Distributed.Fleet.del_len
        in
        let proxy =
          match Distributed.Fleet.proxy x.fleet ~peer:y.name with
          | Some p -> p
          | None -> fail "ep %d: %s lost its proxy for %s" ep x.name y.name
        in
        if not (List.mem proxy (Cap.Captree.holders tree (Cap.Resource.Memory range)))
        then
          fail "ep %d: %s: remote holder absent from holders of [%d,+%d)" ep x.name
            d.Distributed.Fleet.del_base d.Distributed.Fleet.del_len)
      dels;
    (* Conversely: every import on y maps to a live delegation on x — a
       revocation that was acked must not leave a stale import. *)
    List.iter
      (fun (i : Distributed.Fleet.import) ->
        if i.Distributed.Fleet.imp_origin = x.name then
          if
            not
              (List.exists
                 (fun d -> d.Distributed.Fleet.del_id = i.Distributed.Fleet.imp_del_id)
                 dels)
          then
            fail "ep %d: stale import %d on %s (lost revocation)" ep
              i.Distributed.Fleet.imp_del_id y.name)
      (Distributed.Fleet.imports y.fleet);
    (* No leaked proxy caps: the proxy domain holds exactly the
       delegations, and the frozen set is exactly the proxy caps. *)
    (match Distributed.Fleet.proxy x.fleet ~peer:y.name with
    | None -> ()
    | Some proxy ->
      let held = List.sort Int.compare (Cap.Captree.all_caps_of_domain tree proxy) in
      let expected =
        List.sort Int.compare (List.map (fun d -> d.Distributed.Fleet.proxy_cap) dels)
      in
      if held <> expected then
        fail "ep %d: %s proxy holds [%s] but delegations say [%s]" ep x.name
          (String.concat "," (List.map string_of_int held))
          (String.concat "," (List.map string_of_int expected)));
    if Distributed.Fleet.pending_revokes x.fleet <> [] then
      fail "ep %d: %s still has pending revocations after convergence" ep x.name
  in

  let converge ep =
    Distributed.Network.heal_all net;
    let rounds = ref 0 in
    while
      (not (Distributed.Fleet.idle a.fleet && Distributed.Fleet.idle b.fleet))
      && !rounds < 400
    do
      incr rounds;
      Distributed.Fleet.tick a.fleet;
      Distributed.Fleet.tick b.fleet;
      ignore (Distributed.Fleet.poll a.fleet);
      ignore (Distributed.Fleet.poll b.fleet)
    done;
    if not (Distributed.Fleet.idle a.fleet && Distributed.Fleet.idle b.fleet) then begin
      List.iter
        (fun n ->
          Printf.eprintf "--- %s: applied=%d acked=%d backlog=%d pending=[%s]\n" n.name
            (Distributed.Fleet.applied n.fleet
               ~peer:(if n.name = "alpha" then "beta" else "alpha"))
            (Distributed.Fleet.acked n.fleet
               ~peer:(if n.name = "alpha" then "beta" else "alpha"))
            (Distributed.Fleet.backlog n.fleet
               ~peer:(if n.name = "alpha" then "beta" else "alpha"))
            (String.concat ","
               (List.map string_of_int (Distributed.Fleet.pending_revokes n.fleet)));
          List.iter
            (fun (d : Distributed.Fleet.delegation) ->
              Printf.eprintf "    del %d peer=%s cap=%d seq=%d rseq=%d state=%s\n"
                d.del_id d.del_peer d.proxy_cap d.del_seq d.revoke_seq
                (match d.del_state with
                | Distributed.Fleet.Active -> "A"
                | Distributed.Fleet.Revoking -> "R"
                | Distributed.Fleet.Revoked -> "D"))
            (Distributed.Fleet.delegations n.fleet);
          List.iter
            (fun (i : Distributed.Fleet.import) ->
              Printf.eprintf "    imp %s/%d\n" i.imp_origin i.imp_del_id)
            (Distributed.Fleet.imports n.fleet))
        [ a; b ]
    end;
    if not (Distributed.Fleet.idle a.fleet && Distributed.Fleet.idle b.fleet) then
      fail "ep %d: no convergence after %d rounds (backlog a=%d b=%d pending a=%d b=%d)"
        ep !rounds
        (Distributed.Fleet.backlog a.fleet ~peer:b.name)
        (Distributed.Fleet.backlog b.fleet ~peer:a.name)
        (List.length (Distributed.Fleet.pending_revokes a.fleet))
        (List.length (Distributed.Fleet.pending_revokes b.fleet));
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

  for ep = 1 to episodes do
    let ops = 3 + Random.State.int rng 6 in
    for _ = 1 to ops do
      let pair = if Random.State.bool rng then (a, b) else (b, a) in
      if Random.State.int rng 4 = 0 then adversary ep else fleet_op ep pair
    done;
    converge ep;
    check_clean ep a;
    check_clean ep b;
    check_agreement ep (a, b);
    check_agreement ep (b, a)
  done;
  say "final: crashes=%d delegations a=%d b=%d imports a=%d b=%d net(drop=%d dup=%d reord=%d part=%d)"
    !crashes
    (List.length (Distributed.Fleet.delegations a.fleet))
    (List.length (Distributed.Fleet.delegations b.fleet))
    (List.length (Distributed.Fleet.imports a.fleet))
    (List.length (Distributed.Fleet.imports b.fleet))
    (Distributed.Network.dropped net)
    (Distributed.Network.duplicated net)
    (Distributed.Network.reordered net)
    (Distributed.Network.partition_drops net);
  Testkit.chaos_check_obs ~suite:"fleet" ~seed:base_seed ~where:"end of run";
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
  Printf.printf "fleet chaos: %d episodes x2 runs OK (%d transcript lines)\n%!" episodes
    (List.length t1)
