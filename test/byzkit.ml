(* The byzantine domain-0 engine.

   The chaos drivers model an *unlucky* world — crashes, partitions,
   reordering. This engine models a *malicious* one: the most powerful
   principal below the monitor (domain 0, plus any domain it can speak
   for) actively tries to confuse the capability engine and the
   attestation plane. Attacks are drawn seed-deterministically from a
   vocabulary of known monitor-breaking patterns:

   - forged and stale capability handles (revoked ids replayed into
     share/grant/split/revoke),
   - recycled domain ids (operations aimed at destroyed domains),
   - refcount confusion (duplicate shares, double revokes),
   - circular share patterns (A->B->A) revoked mid-cycle,
   - PMP-layout squeezes on RISC-V (claim C8: layout rejection must be
     a clean denial, never a panic or a half-applied layout),
   - attestation wire abuse (bit-flips, truncation, duplication,
     spliced envelopes) and downgrade attempts (a batch-root signature
     re-framed as a lone report, a report in the retired v1 envelope,
     proofs spliced across batch roots),
   - freeze/thaw confusion against the migration latch.

   After every single step the engine audits the monitor: runtime
   invariants, the full fsck pass, the Obs span-balance self-audit and
   the taint oracle's leak counter. Any red audit, or any attack that
   *succeeds* where the reference answer is denial, is recorded as a
   found bug with enough context to replay: same seed, same episode,
   same step.

   Shared between [test_byzantine] (the @byzantine / @chaos gate) and
   the bench harness (E22 rows), so the fuzzer's episode counts and
   found-bug tallies land in BENCH_capops.json. *)

open Testkit

type arch = X86 | Riscv

let arch_to_string = function X86 -> "x86" | Riscv -> "riscv"

type outcome = {
  o_episodes : int;
  o_steps : int;  (** Total steps executed across all episodes. *)
  o_attacks : int;  (** Hostile actions attempted. *)
  o_denied : int;  (** Attacks the monitor rejected with a clean error. *)
  o_found : string list;  (** Audit failures — each one is a bug. *)
}

type st = {
  w : world;
  arch : arch;
  rng : Fault.Splitmix.t;
  seed : int;
  episode : int;
  mutable step : int;
  mutable doms : Tyche.Domain.id list;  (** Live hostile-created domains. *)
  mutable dead : Tyche.Domain.id list;  (** Destroyed — their ids are the recycled-id ammo. *)
  mutable stale : Cap.Captree.cap_id list;  (** Revoked handles — the replay ammo. *)
  mutable next_base : int;  (** Bump allocator for carve subranges. *)
  mutable attacks : int;
  mutable denied : int;
  mutable found : string list;
}

let m st = st.w.monitor
let page = Hw.Addr.page_size

let bug st fmt =
  Printf.ksprintf
    (fun s ->
      st.found <-
        Printf.sprintf "[%s seed=%d episode=%d step=%d] %s" (arch_to_string st.arch)
          st.seed st.episode st.step s
        :: st.found)
    fmt

(* Count an attack; a clean [Error] is the monitor holding the line. *)
let attack st = function
  | Ok _ -> st.attacks <- st.attacks + 1
  | Error _ ->
    st.attacks <- st.attacks + 1;
    st.denied <- st.denied + 1

(* An attack whose reference answer is denial: success is a bug. *)
let must_deny st ~what = function
  | Error _ ->
    st.attacks <- st.attacks + 1;
    st.denied <- st.denied + 1
  | Ok _ ->
    st.attacks <- st.attacks + 1;
    bug st "%s succeeded (must be denied)" what

let fresh_range st pages =
  let base = st.next_base in
  st.next_base <- base + (pages * page) + page;
  Hw.Addr.Range.make ~base ~len:(pages * page)

let random_cleanup st =
  Fault.Splitmix.pick st.rng
    [ Cap.Revocation.Keep; Cap.Revocation.Zero; Cap.Revocation.Flush_cache;
      Cap.Revocation.Zero_and_flush ]

let nonce st = Printf.sprintf "byz-nonce-%d" (Fault.Splitmix.next st.rng mod 1_000_000)

let pick_dom st = match st.doms with [] -> None | l -> Some (Fault.Splitmix.pick st.rng l)

(* --- legitimate population growth (gives the attacks a surface) ------- *)

let op_create st =
  if List.length st.doms < 6 then begin
    let kind =
      Fault.Splitmix.pick st.rng [ Tyche.Domain.Sandbox; Tyche.Domain.Enclave ]
    in
    match
      Tyche.Monitor.create_domain (m st) ~caller:os
        ~name:(Printf.sprintf "byz-%d-%d" st.episode st.step)
        ~kind
    with
    | Ok d -> st.doms <- d :: st.doms
    | Error _ -> ()
  end

let op_grant_mem st =
  match pick_dom st with
  | None -> ()
  | Some d -> (
    let sub = fresh_range st (1 + Fault.Splitmix.below st.rng 3) in
    match Tyche.Monitor.carve (m st) ~caller:os ~cap:(os_memory_cap st.w) ~subrange:sub with
    | Error _ -> ()
    | Ok piece -> (
      match
        Tyche.Monitor.grant (m st) ~caller:os ~cap:piece ~to_:d ~rights:Cap.Rights.full
          ~cleanup:(random_cleanup st)
      with
      | Ok _ -> ()
      | Error _ -> ()))

(* --- the attack vocabulary -------------------------------------------- *)

(* Forged handles: raw integers that were never issued (or belong to
   someone else) pushed through every capability verb. *)
let op_forge st =
  let cap = 100_000 + Fault.Splitmix.below st.rng 100_000 in
  let caller =
    match st.doms with [] -> os | l -> Fault.Splitmix.pick st.rng (os :: l)
  in
  match Fault.Splitmix.below st.rng 3 with
  | 0 -> must_deny st ~what:"revoke of forged handle"
           (Tyche.Monitor.revoke (m st) ~caller ~cap)
  | 1 -> must_deny st ~what:"share of forged handle"
           (Tyche.Monitor.share (m st) ~caller ~cap ~to_:os ~rights:Cap.Rights.full
              ~cleanup:Cap.Revocation.Keep ())
  | _ -> must_deny st ~what:"split of forged handle"
           (Tyche.Monitor.split (m st) ~caller ~cap ~at:st.next_base)

(* Stale handles: a previously revoked id replayed. The captree never
   recycles ids, so every verb must refuse; if an id ever *were*
   recycled, this is exactly the use-after-revoke confusion that would
   surface it. *)
let op_stale_replay st =
  if st.stale <> [] then begin
    let cap = Fault.Splitmix.pick st.rng st.stale in
    match Fault.Splitmix.below st.rng 3 with
    | 0 -> must_deny st ~what:"revoke of stale handle"
             (Tyche.Monitor.revoke (m st) ~caller:os ~cap)
    | 1 -> must_deny st ~what:"share of stale handle"
             (Tyche.Monitor.share (m st) ~caller:os ~cap ~to_:os ~rights:Cap.Rights.full
                ~cleanup:Cap.Revocation.Keep ())
    | _ -> (
      match pick_dom st with
      | Some d ->
        must_deny st ~what:"grant of stale handle"
          (Tyche.Monitor.grant (m st) ~caller:os ~cap ~to_:d ~rights:Cap.Rights.full
             ~cleanup:Cap.Revocation.Keep)
      | None ->
        must_deny st ~what:"revoke of stale handle"
          (Tyche.Monitor.revoke (m st) ~caller:os ~cap))
  end

(* Recycled domain ids: a destroyed domain must stay destroyed — no
   grant, share, attest or call may reach its old id. *)
let op_recycled_id st =
  match st.dead with
  | [] -> ()
  | dead -> (
    let d = Fault.Splitmix.pick st.rng dead in
    match Fault.Splitmix.below st.rng 3 with
    | 0 -> (
      match Tyche.Monitor.carve (m st) ~caller:os ~cap:(os_memory_cap st.w)
              ~subrange:(fresh_range st 1) with
      | Error _ -> ()
      | Ok piece ->
        must_deny st ~what:"grant to destroyed domain"
          (Tyche.Monitor.grant (m st) ~caller:os ~cap:piece ~to_:d
             ~rights:Cap.Rights.full ~cleanup:Cap.Revocation.Keep);
        (* Reclaim the bait piece so it does not accumulate. *)
        (match Tyche.Monitor.revoke (m st) ~caller:os ~cap:piece with
        | Ok () -> st.stale <- piece :: st.stale
        | Error _ -> ()))
    | 1 -> must_deny st ~what:"attest of destroyed domain"
             (Tyche.Monitor.attest (m st) ~caller:os ~domain:d ~nonce:(nonce st))
    | _ -> must_deny st ~what:"call into destroyed domain"
             (Tyche.Monitor.call (m st) ~core:0 ~target:d))

(* Refcount confusion: duplicate shares of the same core capability,
   then revoke the children in random order with a double-revoke mixed
   in. The refcount invariant pass catches any drift. *)
let op_refcount st =
  match pick_dom st with
  | None -> ()
  | Some d ->
    let core_cap = os_core_cap st.w 0 in
    let share () =
      Tyche.Monitor.share (m st) ~caller:os ~cap:core_cap ~to_:d
        ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ()
    in
    (match (share (), share ()) with
    | Ok c1, Ok c2 ->
      let first, second = if Fault.Splitmix.chance st.rng 0.5 then (c1, c2) else (c2, c1) in
      (match Tyche.Monitor.revoke (m st) ~caller:os ~cap:first with
      | Ok () -> st.stale <- first :: st.stale
      | Error _ -> ());
      (* Double revoke: the handle just died, replay it immediately. *)
      must_deny st ~what:"double revoke" (Tyche.Monitor.revoke (m st) ~caller:os ~cap:first);
      (match Tyche.Monitor.revoke (m st) ~caller:os ~cap:second with
      | Ok () -> st.stale <- second :: st.stale
      | Error _ -> ())
    | Ok c, Error _ | Error _, Ok c ->
      (match Tyche.Monitor.revoke (m st) ~caller:os ~cap:c with
      | Ok () -> st.stale <- c :: st.stale
      | Error _ -> ())
    | Error _, Error _ -> ())

(* Circular shares: os grants to A, A shares to B, B shares back to A.
   Revoking the root of the cycle must cascade through both arms and
   terminate. *)
let op_circular st =
  match st.doms with
  | a :: b :: _ when a <> b -> (
    let sub = fresh_range st 2 in
    match Tyche.Monitor.carve (m st) ~caller:os ~cap:(os_memory_cap st.w) ~subrange:sub with
    | Error _ -> ()
    | Ok piece -> (
      match
        Tyche.Monitor.share (m st) ~caller:os ~cap:piece ~to_:a ~rights:Cap.Rights.full
          ~cleanup:(random_cleanup st) ()
      with
      | Error _ -> ()
      | Ok in_a ->
        (match
           Tyche.Monitor.share (m st) ~caller:a ~cap:in_a ~to_:b ~rights:Cap.Rights.full
             ~cleanup:Cap.Revocation.Keep ()
         with
        | Error _ -> ()
        | Ok in_b ->
          (* Close the cycle: B shares its derived view back to A. *)
          (match
             Tyche.Monitor.share (m st) ~caller:b ~cap:in_b ~to_:a
               ~rights:Cap.Rights.full ~cleanup:Cap.Revocation.Keep ()
           with
          | Ok _ | Error _ -> ());
          st.stale <- in_a :: in_b :: st.stale);
        (* Revoke the whole cycle at its root. *)
        (match Tyche.Monitor.revoke (m st) ~caller:os ~cap:piece with
        | Ok () -> st.stale <- piece :: st.stale
        | Error e ->
          bug st "circular-share root revoke refused: %s"
            (Tyche.Monitor.error_to_string e))))
  | _ -> ()

(* The C8 squeeze: on RISC-V the PMP has a handful of entries; keep
   granting disjoint single pages until the layout no longer fits. The
   claim under test is that rejection is clean — an [Error], every
   prior grant intact, no half-programmed PMP. *)
let op_squeeze st =
  if st.arch = Riscv then
    match pick_dom st with
    | None -> ()
    | Some d ->
      let rec push i granted =
        if i >= 24 then (granted, None)
        else
          match
            Tyche.Monitor.carve (m st) ~caller:os ~cap:(os_memory_cap st.w)
              ~subrange:(fresh_range st 1)
          with
          | Error _ -> (granted, None)
          | Ok piece -> (
            match
              Tyche.Monitor.grant (m st) ~caller:os ~cap:piece ~to_:d
                ~rights:Cap.Rights.full ~cleanup:Cap.Revocation.Keep
            with
            | Ok g -> push (i + 1) (g :: granted)
            | Error e -> (granted, Some (piece, e)))
      in
      let granted, rejection = push 0 [] in
      (match rejection with
      | Some (piece, _) ->
        st.attacks <- st.attacks + 1;
        st.denied <- st.denied + 1;
        (* The rejected piece is back in os hands; fold it away. *)
        (match Tyche.Monitor.revoke (m st) ~caller:os ~cap:piece with
        | Ok () -> st.stale <- piece :: st.stale
        | Error _ -> ())
      | None -> st.attacks <- st.attacks + 1);
      (* Squeezes may not leak PMP entries: release everything. *)
      List.iter
        (fun g ->
          match Tyche.Monitor.revoke (m st) ~caller:os ~cap:g with
          | Ok () -> st.stale <- g :: st.stale
          | Error e ->
            bug st "post-squeeze revoke refused: %s" (Tyche.Monitor.error_to_string e))
        granted

(* Wire abuse: a valid envelope, then bit-flips, truncations, junk
   suffixes and doubled envelopes. The parser must reject or the
   verifier must — a corrupted envelope that still verifies is a
   signature-confusion bug. *)
let op_wire_fuzz st =
  match Tyche.Monitor.attest (m st) ~caller:os ~domain:os ~nonce:(nonce st) with
  | Error _ -> ()
  | Ok att ->
    let root = Tyche.Monitor.attestation_root (m st) in
    let wire = Tyche.Attestation.to_wire att in
    let corrupt =
      match Fault.Splitmix.below st.rng 4 with
      | 0 ->
        (* Flip one byte. *)
        let i = Fault.Splitmix.below st.rng (String.length wire) in
        let b = Bytes.of_string wire in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
        Bytes.to_string b
      | 1 -> String.sub wire 0 (Fault.Splitmix.below st.rng (String.length wire))
      | 2 -> wire ^ "trailing-junk"
      | _ -> wire ^ wire (* duplicated envelope in one datagram *)
    in
    st.attacks <- st.attacks + 1;
    (match Tyche.Attestation.of_wire corrupt with
    | Error _ -> st.denied <- st.denied + 1
    | Ok att' ->
      if Tyche.Attestation.verify ~monitor_root:root att' then
        (* A flipped byte can only land in a spot the signature does
           not cover if the envelope has dead bytes — it does not. *)
        bug st "corrupted attestation envelope still verifies"
      else st.denied <- st.denied + 1)

(* Downgrade: every report is Merkle-batched, so there is no weaker
   form to fall back to. Two attempts at one anyway: a batch-root
   signature re-framed as a lone report (a one-leaf tree over the
   payload) must not verify, and a report wrapped in the retired v1
   envelope of a directly signed report must not parse. *)
let op_downgrade st =
  let domains = os :: (match pick_dom st with Some d -> [ d ] | None -> []) in
  match Tyche.Monitor.attest_batch (m st) ~caller:os ~domains ~nonce:(nonce st) with
  | Error _ | Ok [] -> ()
  | Ok (att :: rest) ->
    let root = Tyche.Monitor.attestation_root (m st) in
    if not (Tyche.Attestation.verify ~monitor_root:root att) then
      bug st "genuine batched attestation fails verification";
    (* A batch of one is its own one-leaf tree: only a larger batch's
       root signature can be re-framed. *)
    if rest <> [] then begin
      let leaf = Crypto.Sha256.string (Tyche.Attestation.payload att) in
      let lone =
        { att.Tyche.Attestation.evidence with
          batch_root = Crypto.Merkle.root (Crypto.Merkle.build [ leaf ]);
          proof = { Crypto.Merkle.leaf_index = 0; path = [] } }
      in
      st.attacks <- st.attacks + 1;
      if Tyche.Attestation.verify ~monitor_root:root { att with evidence = lone } then
        bug st "batch-root signature re-framed as a lone report verifies"
      else st.denied <- st.denied + 1
    end;
    st.attacks <- st.attacks + 1;
    match Tyche.Attestation.of_wire (v1_envelope att) with
    | Error _ -> st.denied <- st.denied + 1
    | Ok _ -> bug st "report in the retired v1 envelope parses"

(* Splice: inclusion proofs from one batch grafted onto a report from
   another. Both roots are genuinely signed — only the binding between
   payload, proof and root can refuse this. *)
let op_splice st =
  let n = nonce st in
  match
    ( Tyche.Monitor.attest_batch (m st) ~caller:os ~domains:[ os ] ~nonce:n,
      Tyche.Monitor.attest_batch (m st) ~caller:os
        ~domains:(os :: (match pick_dom st with Some d -> [ d ] | None -> []))
        ~nonce:(n ^ "-b") )
  with
  | Ok (a :: _), Ok (b :: _) ->
    let root = Tyche.Monitor.attestation_root (m st) in
    let spliced = { a with Tyche.Attestation.evidence = b.Tyche.Attestation.evidence } in
    st.attacks <- st.attacks + 1;
    if Tyche.Attestation.verify ~monitor_root:root spliced then
      bug st "proof spliced across batch roots verifies"
    else st.denied <- st.denied + 1
  | _ -> ()

(* Freeze confusion: latch a domain as if it were mid-migration, then
   try to mutate it and its holdings; thaw must restore full service. *)
let op_freeze st =
  match pick_dom st with
  | None -> ()
  | Some d -> (
    match Tyche.Monitor.freeze_domain (m st) ~domain:d with
    | Error _ -> ()
    | Ok () ->
      (match
         Tyche.Monitor.carve (m st) ~caller:os ~cap:(os_memory_cap st.w)
           ~subrange:(fresh_range st 1)
       with
      | Error _ -> ()
      | Ok piece ->
        must_deny st ~what:"grant to frozen domain"
          (Tyche.Monitor.grant (m st) ~caller:os ~cap:piece ~to_:d
             ~rights:Cap.Rights.full ~cleanup:Cap.Revocation.Keep);
        (match Tyche.Monitor.revoke (m st) ~caller:os ~cap:piece with
        | Ok () -> st.stale <- piece :: st.stale
        | Error _ -> ()));
      (match Tyche.Monitor.caps_of (m st) d with
      | cap :: _ ->
        must_deny st ~what:"revoke under migration freeze"
          (Tyche.Monitor.revoke (m st) ~caller:os ~cap)
      | [] -> ());
      (match Tyche.Monitor.thaw_domain (m st) ~domain:d with
      | Ok () -> ()
      | Error e -> bug st "thaw refused: %s" (Tyche.Monitor.error_to_string e)))

(* Destroy: the legitimate operation that arms the recycled-id and
   stale-handle attacks. *)
let op_destroy st =
  match pick_dom st with
  | None -> ()
  | Some d ->
    let caps = Tyche.Monitor.caps_of (m st) d in
    (match Tyche.Monitor.destroy_domain (m st) ~caller:os ~domain:d with
    | Ok () ->
      st.doms <- List.filter (fun x -> x <> d) st.doms;
      st.dead <- d :: st.dead;
      st.stale <- caps @ st.stale
    | Error _ -> ())

(* --- the audit --------------------------------------------------------- *)

let audit st ~opname =
  (match Tyche.Invariants.check_all (m st) with
  | [] -> ()
  | vs ->
    bug st "after %s: %d invariant violation(s): %s" opname (List.length vs)
      (String.concat "; "
         (List.map (Format.asprintf "%a" Tyche.Invariants.pp_violation) vs)));
  let r = Tyche.Fsck.check (m st) in
  if not (Tyche.Fsck.ok r) then
    bug st "after %s: fsck: %s" opname (Format.asprintf "%a" Tyche.Fsck.pp r);
  (match Obs.check () with
  | Ok () -> ()
  | Error msg -> bug st "after %s: obs self-audit: %s" opname msg);
  let taint = Hw.Taint.stats st.w.machine.Hw.Machine.taint in
  if taint.Hw.Taint.leaks > 0 then begin
    bug st "after %s: taint oracle recorded %d leak(s)%s" opname taint.Hw.Taint.leaks
      (match Hw.Taint.last_leak st.w.machine.Hw.Machine.taint with
      | Some l -> Format.asprintf " (last: %a)" Hw.Taint.pp_leak l
      | None -> "");
    (* Reset so one leak is reported once, not once per later step. *)
    Hw.Taint.reset_counters st.w.machine.Hw.Machine.taint
  end

let vocabulary =
  [ ("create", op_create); ("grant-mem", op_grant_mem); ("forge", op_forge);
    ("stale-replay", op_stale_replay); ("recycled-id", op_recycled_id);
    ("refcount", op_refcount); ("circular", op_circular); ("squeeze", op_squeeze);
    ("wire-fuzz", op_wire_fuzz); ("downgrade", op_downgrade); ("splice", op_splice);
    ("freeze", op_freeze); ("destroy", op_destroy) ]

let run_episode ~seed ~episode ~steps arch =
  let wseed = Int64.of_int ((seed * 7919) + episode) in
  let w =
    match arch with
    | X86 -> boot_x86 ~seed:wseed ()
    | Riscv -> boot_riscv ~seed:wseed ()
  in
  let st =
    { w; arch; rng = Fault.Splitmix.create ((seed * 65537) + episode); seed; episode;
      step = 0; doms = []; dead = []; stale = []; next_base = 0x200000; attacks = 0;
      denied = 0; found = [] }
  in
  (* Seed the population so the first attacks have something to hit. *)
  op_create st;
  op_create st;
  for step = 1 to steps do
    st.step <- step;
    let opname, op = Fault.Splitmix.pick st.rng vocabulary in
    op st;
    audit st ~opname
  done;
  st

let run ?(steps_per_episode = 25) ~seed ~episodes () =
  let total_steps = ref 0 and attacks = ref 0 and denied = ref 0 and found = ref [] in
  for episode = 0 to episodes - 1 do
    let arch = if episode mod 2 = 0 then X86 else Riscv in
    let st = run_episode ~seed ~episode ~steps:steps_per_episode arch in
    total_steps := !total_steps + st.step;
    attacks := !attacks + st.attacks;
    denied := !denied + st.denied;
    found := List.rev_append st.found !found
  done;
  { o_episodes = episodes; o_steps = !total_steps; o_attacks = !attacks;
    o_denied = !denied; o_found = List.rev !found }
