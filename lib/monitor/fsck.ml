(* Post-recovery consistency check ("monitor fsck"). Recovery never
   trusts a store blindly: after the checkpoint is restored and the WAL
   suffix replayed, this pass cross-checks the rebuilt state against
   every runtime invariant, the incremental indexes' full-scan
   references, and — when the caller kept pre-crash attestations — the
   attestation bodies themselves. *)

let src = Logs.Src.create "tyche.fsck" ~doc:"post-recovery consistency check"

module Log = (val Logs.src_log src : Logs.LOG)

type item = {
  f_name : string;
  f_ok : bool;
  f_detail : string list;
}

type report = { items : item list }

let ok r = List.for_all (fun i -> i.f_ok) r.items

let of_violations name vs =
  { f_name = name;
    f_ok = vs = [];
    f_detail =
      List.map
        (fun v -> v.Invariants.rule ^ ": " ^ v.Invariants.detail)
        vs }

let body_equal a b = String.equal (Attestation.payload a) (Attestation.payload b)

(* Re-attest each baseline domain under its original nonce and compare
   canonical payloads byte for byte. The signature necessarily differs
   (recovery generates a fresh one-time signer — private keys are not
   durable), but the signed *body* is a pure function of the tree and
   domain state, so any divergence means recovery lost or invented
   state. *)
let check_attest_baseline t baseline =
  let fail = ref [] in
  List.iter
    (fun (domain, (pre : Attestation.t)) ->
      match Monitor.attest t ~caller:Domain.initial ~domain ~nonce:pre.Attestation.nonce with
      | Ok post ->
        if not (body_equal pre post) then
          fail := Printf.sprintf "domain %d: attestation body diverged" domain :: !fail
      | Error e ->
        fail :=
          Printf.sprintf "domain %d: attest failed: %s" domain (Monitor.error_to_string e)
          :: !fail)
    baseline;
  { f_name = "attest-body"; f_ok = !fail = []; f_detail = List.rev !fail }

(* The clean-up oracle's quiescence pass: guarded taint is residue a
   policy promised to clean — it may exist only inside the API call
   that created it (the deferred zero/flush at commit erases it), so
   any guarded entry visible here is a clean-up that never ran. A
   nonzero leak count means some domain already *observed* foreign
   guarded residue (in Record mode, where the oracle counts instead of
   raising). *)
let check_taint t =
  let tt = (Monitor.machine t).Hw.Machine.taint in
  let residue =
    List.map
      (fun (surface, addr, prior) ->
        Printf.sprintf "guarded %s residue of domain %d at 0x%x"
          (Hw.Taint.surface_to_string surface) prior addr)
      (Hw.Taint.guarded_residue tt)
  in
  let st = Hw.Taint.stats tt in
  let leaks =
    if st.Hw.Taint.leaks = 0 then []
    else
      [ Printf.sprintf "%d cross-domain leak(s) observed%s" st.Hw.Taint.leaks
          (match Hw.Taint.last_leak tt with
          | Some l -> Format.asprintf " (last: %a)" Hw.Taint.pp_leak l
          | None -> "") ]
  in
  let detail = residue @ leaks in
  { f_name = "taint"; f_ok = detail = []; f_detail = detail }

let check ?baseline t =
  let index_refs =
    match Cap.Captree.check_index_consistency (Monitor.tree t) with
    | Ok () -> []
    | Error e -> [ { Invariants.rule = "index-reference"; detail = e } ]
  in
  let items =
    [ of_violations "tree" (Invariants.check_tree t);
      of_violations "indexes" (Invariants.check_index t @ index_refs);
      of_violations "hardware" (Invariants.check_hardware_matches_tree t);
      of_violations "dma" (Invariants.check_dma t);
      of_violations "sealed" (Invariants.check_sealed_unextended t);
      of_violations "tlb" (Invariants.check_no_stale_tlb t);
      of_violations "refcounts" (Invariants.check_refcounts t);
      of_violations "remote" (Invariants.check_remote t);
      of_violations "switches" (Invariants.check_switch_live t);
      check_taint t ]
  in
  let items =
    match baseline with
    | Some b -> items @ [ check_attest_baseline t b ]
    | None -> items
  in
  let r = { items } in
  if not (ok r) then
    Log.warn (fun m ->
        m "fsck found inconsistencies in %d of %d passes"
          (List.length (List.filter (fun i -> not i.f_ok) items))
          (List.length items));
  r

let pp fmt r =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun i ->
      Format.fprintf fmt "%-12s %s@," i.f_name (if i.f_ok then "ok" else "FAILED");
      List.iter (fun d -> Format.fprintf fmt "  - %s@," d) i.f_detail)
    r.items;
  Format.fprintf fmt "verdict: %s@]" (if ok r then "clean" else "INCONSISTENT")
