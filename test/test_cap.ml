(* Tests for the capability tree: lineage, attenuation, reference
   counts, cascading revocation (including circular sharing), and the
   Fig. 4 region map. *)

open Cap

let range ~base ~len = Hw.Addr.Range.make ~base ~len
let mem ~base ~len = Resource.Memory (range ~base ~len)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "capability error: %s" (Captree.error_to_string e)

let expect_err expected = function
  | Error e when e = expected -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Captree.error_to_string e)
  | Ok _ -> Alcotest.fail "expected an error"

(* The domain's active cap whose range contains [r]. *)
let holding t domain r =
  List.find
    (fun cap ->
      match Captree.resource t cap with
      | Some (Resource.Memory outer) -> Hw.Addr.Range.includes ~outer ~inner:r
      | _ -> false)
    (Captree.caps_of_domain t domain)

let fresh_with_root ?(owner = 0) ?(len = 0x100000) () =
  let t = Captree.create () in
  let root, _ = ok (Captree.root t ~owner (mem ~base:0 ~len) Rights.full) in
  (t, root)

let test_root_overlap () =
  let t = Captree.create () in
  let _ = ok (Captree.root t ~owner:0 (mem ~base:0 ~len:0x1000) Rights.full) in
  expect_err Captree.Overlapping_root
    (Captree.root t ~owner:1 (mem ~base:0x800 ~len:0x1000) Rights.full);
  let _ = ok (Captree.root t ~owner:1 (mem ~base:0x1000 ~len:0x1000) Rights.full) in
  let _ = ok (Captree.root t ~owner:0 (Resource.Cpu_core 0) Rights.full) in
  expect_err Captree.Overlapping_root
    (Captree.root t ~owner:1 (Resource.Cpu_core 0) Rights.full)

let test_share_basics () =
  let t, root = fresh_with_root () in
  let child, effects =
    ok (Captree.share t root ~to_:1 ~rights:Rights.rw ~cleanup:Revocation.Zero ())
  in
  Alcotest.(check int) "one attach effect" 1 (List.length effects);
  Alcotest.(check (option int)) "child owner" (Some 1) (Captree.owner t child);
  Alcotest.(check bool) "parent still active" true (Captree.is_active t root);
  Alcotest.(check bool) "child active" true (Captree.is_active t child);
  Alcotest.(check (option int)) "lineage" (Some root) (Captree.parent t child);
  Alcotest.(check int) "refcount 2" 2 (Captree.refcount t (mem ~base:0 ~len:0x1000))

let test_share_subrange () =
  let t, root = fresh_with_root () in
  let sub = range ~base:0x2000 ~len:0x1000 in
  let child, _ =
    ok (Captree.share t root ~to_:1 ~rights:Rights.rw ~cleanup:Revocation.Keep ~subrange:sub ())
  in
  Alcotest.(check bool) "narrowed resource" true
    (Captree.resource t child = Some (Resource.Memory sub));
  expect_err Captree.Bad_subrange
    (Captree.share t root ~to_:1 ~rights:Rights.rw ~cleanup:Revocation.Keep
       ~subrange:(range ~base:0xfffff000 ~len:0x2000) ())

let test_rights_attenuation () =
  let t, root = fresh_with_root () in
  let weak, _ =
    ok (Captree.share t root ~to_:1 ~rights:Rights.rw ~cleanup:Revocation.Keep ())
  in
  expect_err Captree.Grant_denied
    (Captree.grant t weak ~to_:2 ~rights:Rights.read_only ~cleanup:Revocation.Keep);
  expect_err Captree.Rights_exceeded
    (Captree.share t weak ~to_:2 ~rights:Rights.full ~cleanup:Revocation.Keep ());
  let weaker, _ =
    ok (Captree.share t weak ~to_:2 ~rights:Rights.read_only ~cleanup:Revocation.Keep ())
  in
  expect_err Captree.Sharing_denied
    (Captree.share t weaker ~to_:3 ~rights:Rights.read_only ~cleanup:Revocation.Keep ())

let test_grant_moves () =
  let t, root = fresh_with_root () in
  let child, effects =
    ok (Captree.grant t root ~to_:1 ~rights:Rights.full ~cleanup:Revocation.Zero)
  in
  Alcotest.(check int) "detach+attach" 2 (List.length effects);
  Alcotest.(check bool) "parent inactive" false (Captree.is_active t root);
  Alcotest.(check int) "refcount stays 1" 1 (Captree.refcount t (mem ~base:0 ~len:0x1000));
  Alcotest.(check (list int)) "holder is grantee" [ 1 ]
    (Captree.holders t (mem ~base:0 ~len:0x1000));
  expect_err (Captree.Capability_inactive root)
    (Captree.share t root ~to_:2 ~rights:Rights.rw ~cleanup:Revocation.Keep ());
  ignore child

let test_split_and_carve () =
  let t, root = fresh_with_root ~len:0x10000 () in
  let l, r, effects = ok (Captree.split t root ~at:0x4000) in
  Alcotest.(check int) "split has no hw effects" 0 (List.length effects);
  Alcotest.(check bool) "parent inactive" false (Captree.is_active t root);
  Alcotest.(check bool) "pieces active" true (Captree.is_active t l && Captree.is_active t r);
  Alcotest.(check bool) "left range" true
    (Captree.resource t l = Some (mem ~base:0 ~len:0x4000));
  expect_err Captree.Bad_subrange (Captree.split t l ~at:0x4000);
  let sub = range ~base:0x8000 ~len:0x2000 in
  let piece, _ = ok (Captree.carve t r ~subrange:sub) in
  Alcotest.(check bool) "carved exactly" true
    (Captree.resource t piece = Some (Resource.Memory sub));
  Alcotest.(check int) "still exclusive" 1 (Captree.refcount t (Resource.Memory sub));
  let same, _ = ok (Captree.carve t piece ~subrange:sub) in
  Alcotest.(check int) "identity carve" piece same

let test_revoke_cascade () =
  let t, root = fresh_with_root () in
  let a, _ = ok (Captree.share t root ~to_:1 ~rights:Rights.full ~cleanup:Revocation.Zero ()) in
  let b, _ = ok (Captree.share t a ~to_:2 ~rights:Rights.full ~cleanup:Revocation.Zero ()) in
  let c, _ = ok (Captree.share t b ~to_:3 ~rights:Rights.full ~cleanup:Revocation.Zero ()) in
  Alcotest.(check int) "refcount 4" 4 (Captree.refcount t (mem ~base:0 ~len:0x1000));
  let effects = ok (Captree.revoke t a) in
  Alcotest.(check int) "three detaches" 3
    (List.length (List.filter (function Captree.Detach _ -> true | _ -> false) effects));
  Alcotest.(check bool) "subtree gone" true
    ((not (Captree.is_active t a)) && (not (Captree.is_active t b))
     && not (Captree.is_active t c));
  Alcotest.(check int) "refcount back to 1" 1 (Captree.refcount t (mem ~base:0 ~len:0x1000));
  Alcotest.(check bool) "root still active" true (Captree.is_active t root)

let test_revoke_reactivates_granted_parent () =
  let t, root = fresh_with_root () in
  let child, _ = ok (Captree.grant t root ~to_:1 ~rights:Rights.full ~cleanup:Revocation.Zero) in
  let effects = ok (Captree.revoke t child) in
  Alcotest.(check bool) "parent reactivated" true (Captree.is_active t root);
  let reattach =
    List.filter (function Captree.Attach { domain = 0; _ } -> true | _ -> false) effects
  in
  Alcotest.(check int) "owner reattached" 1 (List.length reattach);
  Alcotest.(check (list int)) "holder restored" [ 0 ]
    (Captree.holders t (mem ~base:0 ~len:0x1000))

let test_revoke_split_children () =
  let t, root = fresh_with_root ~len:0x2000 () in
  let l, r, _ = ok (Captree.split t root ~at:0x1000) in
  let _ = ok (Captree.revoke t l) in
  Alcotest.(check bool) "parent still inactive" false (Captree.is_active t root);
  Alcotest.(check int) "left range unowned" 0 (Captree.refcount t (mem ~base:0 ~len:0x1000));
  let _ = ok (Captree.revoke t r) in
  Alcotest.(check bool) "parent reassembled" true (Captree.is_active t root);
  Alcotest.(check int) "whole range owned again" 1
    (Captree.refcount t (mem ~base:0 ~len:0x2000))

let test_revoke_children_keeps_cap () =
  let t, root = fresh_with_root () in
  let _ = ok (Captree.share t root ~to_:1 ~rights:Rights.rw ~cleanup:Revocation.Keep ()) in
  let _ = ok (Captree.share t root ~to_:2 ~rights:Rights.rw ~cleanup:Revocation.Keep ()) in
  let effects = ok (Captree.revoke_children t root) in
  Alcotest.(check int) "both children detached" 2 (List.length effects);
  Alcotest.(check bool) "cap kept" true (Captree.is_active t root);
  Alcotest.(check int) "exclusive again" 1 (Captree.refcount t (mem ~base:0 ~len:0x1000))

let test_circular_sharing_revocation () =
  let t, root = fresh_with_root ~owner:0 () in
  let a = root in
  let b1, _ = ok (Captree.share t a ~to_:1 ~rights:Rights.full ~cleanup:Revocation.Zero ()) in
  let a2, _ = ok (Captree.share t b1 ~to_:0 ~rights:Rights.full ~cleanup:Revocation.Zero ()) in
  let b2, _ = ok (Captree.share t a2 ~to_:1 ~rights:Rights.full ~cleanup:Revocation.Zero ()) in
  Alcotest.(check int) "two domains, refcount 2" 2
    (Captree.refcount t (mem ~base:0 ~len:0x1000));
  let effects = ok (Captree.revoke t b1) in
  Alcotest.(check int) "cycle fully revoked" 3
    (List.length (List.filter (function Captree.Detach _ -> true | _ -> false) effects));
  Alcotest.(check bool) "only root remains" true
    (Captree.is_active t a && (not (Captree.is_active t b2)) && not (Captree.is_active t a2));
  Alcotest.(check int) "exclusive" 1 (Captree.refcount t (mem ~base:0 ~len:0x1000));
  Alcotest.(check bool) "tree invariants hold" true (Captree.check_invariants t = Ok ())

let test_fig4_region_map () =
  (* Reproduce Fig. 4's shape. Domains: 0=OS (driver), 1=SaaS VM,
     2=crypto engine, 3=SaaS app, 4=GPU. *)
  let t = Captree.create () in
  let page = 0x1000 in
  let root, _ = ok (Captree.root t ~owner:0 (mem ~base:0 ~len:(8 * page)) Rights.full) in
  let vm_part, _ = ok (Captree.carve t root ~subrange:(range ~base:page ~len:(7 * page))) in
  let vm, _ = ok (Captree.grant t vm_part ~to_:1 ~rights:Rights.full ~cleanup:Revocation.Zero) in
  (* VM grants page 1 to the crypto engine. *)
  let ce_piece, _ = ok (Captree.carve t vm ~subrange:(range ~base:page ~len:page)) in
  let _ =
    ok (Captree.grant t ce_piece ~to_:2 ~rights:Rights.full ~cleanup:Revocation.Zero_and_flush)
  in
  (* VM shares page 3 with the crypto engine. *)
  let vm_cap = holding t 1 (range ~base:(3 * page) ~len:page) in
  let share_piece, _ = ok (Captree.carve t vm_cap ~subrange:(range ~base:(3 * page) ~len:page)) in
  let _ = ok (Captree.share t share_piece ~to_:2 ~rights:Rights.rw ~cleanup:Revocation.Zero ()) in
  (* VM grants pages 4-5 to the SaaS app. *)
  let vm_cap2 = holding t 1 (range ~base:(4 * page) ~len:(2 * page)) in
  let app_piece, _ =
    ok (Captree.carve t vm_cap2 ~subrange:(range ~base:(4 * page) ~len:(2 * page)))
  in
  let app, _ = ok (Captree.grant t app_piece ~to_:3 ~rights:Rights.full ~cleanup:Revocation.Zero) in
  (* App shares page 5 with the GPU. *)
  let gpu_piece, _ = ok (Captree.carve t app ~subrange:(range ~base:(5 * page) ~len:page)) in
  let _ = ok (Captree.share t gpu_piece ~to_:4 ~rights:Rights.rw ~cleanup:Revocation.Zero ()) in
  let expected =
    [ (0, [ 0 ]); (1, [ 2 ]); (2, [ 1 ]); (3, [ 1; 2 ]); (4, [ 3 ]); (5, [ 3; 4 ]);
      (6, [ 1 ]); (7, [ 1 ]) ]
  in
  let map = Captree.region_map t in
  List.iter
    (fun (pg, holders) ->
      match List.find_opt (fun (r, _) -> Hw.Addr.Range.contains r (pg * page)) map with
      | Some (_, hs) ->
        Alcotest.(check (list int)) (Printf.sprintf "page %d holders" pg) holders hs
      | None -> Alcotest.failf "page %d not in region map" pg)
    expected;
  List.iter
    (fun (pg, expected_rc) ->
      Alcotest.(check int)
        (Printf.sprintf "page %d refcount" pg)
        expected_rc
        (Captree.refcount t (mem ~base:(pg * page) ~len:page)))
    [ (0, 1); (1, 1); (2, 1); (3, 2); (4, 1); (5, 2) ];
  Alcotest.(check bool) "invariants" true (Captree.check_invariants t = Ok ());
  Alcotest.(check bool) "crypto engine page exclusive" true
    (Captree.exclusively_owned t ~domain:2 (mem ~base:page ~len:page));
  Alcotest.(check bool) "shared page not exclusive" false
    (Captree.exclusively_owned t ~domain:1 (mem ~base:(3 * page) ~len:page))

let test_region_map_merging () =
  let t, root = fresh_with_root ~len:0x4000 () in
  let _l, r, _ = ok (Captree.split t root ~at:0x1000) in
  let _ = ok (Captree.split t r ~at:0x2000) in
  match Captree.region_map t with
  | [ (seg, holders) ] ->
    Alcotest.(check int) "merged back to one segment" 0x4000 (Hw.Addr.Range.len seg);
    Alcotest.(check (list int)) "one holder" [ 0 ] holders
  | segs -> Alcotest.failf "expected 1 merged segment, got %d" (List.length segs)

(* The circular-sharing scenario again, this time checking that the
   incremental indexes agree with the full scans at every step of the
   cascade — revocation of a cycle is where refcount bookkeeping is
   easiest to get wrong. *)
let test_circular_revocation_index_agreement () =
  let t, a = fresh_with_root ~owner:0 () in
  let probe = mem ~base:0 ~len:0x1000 in
  let agree label =
    (match Captree.check_index_consistency t with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: index inconsistency: %s" label e);
    Alcotest.(check int)
      (label ^ ": refcount agrees")
      (Captree.refcount_reference t probe)
      (Captree.refcount t probe);
    Alcotest.(check (list int))
      (label ^ ": holders agree")
      (Captree.holders_reference t probe)
      (Captree.holders t probe)
  in
  let b1, _ = ok (Captree.share t a ~to_:1 ~rights:Rights.full ~cleanup:Revocation.Zero ()) in
  agree "after a->b";
  let a2, _ = ok (Captree.share t b1 ~to_:0 ~rights:Rights.full ~cleanup:Revocation.Zero ()) in
  agree "after b->a";
  let b2, _ = ok (Captree.share t a2 ~to_:1 ~rights:Rights.full ~cleanup:Revocation.Zero ()) in
  ignore b2;
  agree "after a->b again";
  let _ = ok (Captree.revoke t b1) in
  agree "after revoking the cycle";
  Alcotest.(check int) "exclusive again" 1 (Captree.refcount t probe)

(* 50k-capability smoke tests: the iterative subtree walk, the
   tail-recursive reference merge, and the delta-maintained segment
   store must all survive trees this size without stack overflow or
   quadratic blowup. [check_invariants] is O(n·depth) so these use
   [check_index_consistency] (O(n log n)) instead. *)
let smoke_n = 50_000

let test_smoke_deep_chain () =
  let t, root = fresh_with_root ~owner:0 () in
  let probe = mem ~base:0 ~len:0x100000 in
  let first = ref root in
  let prev = ref root in
  for i = 1 to smoke_n do
    let c, _ =
      ok (Captree.share t !prev ~to_:(i mod 7) ~rights:Rights.full ~cleanup:Revocation.Zero ())
    in
    if i = 1 then first := c;
    prev := c
  done;
  Alcotest.(check int) "all nodes present" (smoke_n + 1) (Captree.node_count t);
  Alcotest.(check (list int)) "holders of the shared range" [ 0; 1; 2; 3; 4; 5; 6 ]
    (Captree.holders t probe);
  Alcotest.(check int) "one merged segment" 1 (List.length (Captree.region_map t));
  (match Captree.check_index_consistency t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "index inconsistency on the deep chain: %s" e);
  (* Cascading revocation of the whole 50k-deep chain: must not
     overflow the stack and must restore exclusivity. *)
  let effects = ok (Captree.revoke t !first) in
  Alcotest.(check int) "every share detached" smoke_n
    (List.length (List.filter (function Captree.Detach _ -> true | _ -> false) effects));
  Alcotest.(check int) "only the root remains" 1 (Captree.node_count t);
  Alcotest.(check (list int)) "root exclusive again" [ 0 ] (Captree.holders t probe);
  Alcotest.(check bool) "indexes consistent after cascade" true
    (Captree.check_index_consistency t = Ok ())

let test_smoke_wide_tree () =
  let page = 0x1000 in
  let t, root = fresh_with_root ~owner:0 ~len:(smoke_n * page) () in
  for i = 0 to smoke_n - 1 do
    let sub = range ~base:(i * page) ~len:page in
    let _ =
      ok
        (Captree.share t root ~to_:(1 + (i mod 7)) ~rights:Rights.rw ~cleanup:Revocation.Zero
           ~subrange:sub ())
    in
    ()
  done;
  (* Every page has holders [0; 1 + i mod 7] and neighbours differ, so
     nothing merges: the map (and the tail-recursive reference merge)
     must handle 50k segments. *)
  let map = Captree.region_map t in
  Alcotest.(check int) "one segment per page" smoke_n (List.length map);
  Alcotest.(check int) "reference map agrees" (List.length map)
    (List.length (Captree.region_map_reference t));
  (match Captree.check_index_consistency t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "index inconsistency on the wide tree: %s" e);
  (* Tear the whole forest down through the root. *)
  let _ = ok (Captree.revoke t root) in
  Alcotest.(check int) "tree empty" 0 (Captree.node_count t);
  Alcotest.(check int) "region map empty" 0 (List.length (Captree.region_map t));
  Alcotest.(check int) "no segments left" 0 (Captree.segment_count t)

let test_caps_of_domain_ordering () =
  let t, root = fresh_with_root () in
  let c1, _ = ok (Captree.share t root ~to_:1 ~rights:Rights.rw ~cleanup:Revocation.Keep ()) in
  let c2, _ = ok (Captree.share t root ~to_:1 ~rights:Rights.rw ~cleanup:Revocation.Keep ()) in
  Alcotest.(check (list int)) "creation order" [ c1; c2 ] (Captree.caps_of_domain t 1)

let test_is_ancestor () =
  let t, root = fresh_with_root () in
  let a, _ = ok (Captree.share t root ~to_:1 ~rights:Rights.full ~cleanup:Revocation.Keep ()) in
  let b, _ = ok (Captree.share t a ~to_:2 ~rights:Rights.full ~cleanup:Revocation.Keep ()) in
  Alcotest.(check bool) "root ancestor of b" true (Captree.is_ancestor t ~ancestor:root b);
  Alcotest.(check bool) "a ancestor of b" true (Captree.is_ancestor t ~ancestor:a b);
  Alcotest.(check bool) "b not ancestor of a" false (Captree.is_ancestor t ~ancestor:b a);
  Alcotest.(check bool) "not own ancestor" false (Captree.is_ancestor t ~ancestor:b b)

let test_device_and_core_caps () =
  let t = Captree.create () in
  let core_root, _ = ok (Captree.root t ~owner:0 (Resource.Cpu_core 1) Rights.full) in
  let dev_root, _ = ok (Captree.root t ~owner:0 (Resource.Device 0x310) Rights.full) in
  expect_err Captree.Bad_subrange (Captree.split t core_root ~at:1);
  expect_err Captree.Bad_subrange
    (Captree.share t dev_root ~to_:1 ~rights:Rights.rw ~cleanup:Revocation.Keep
       ~subrange:(range ~base:0 ~len:1) ());
  let shared, _ =
    ok (Captree.share t core_root ~to_:1 ~rights:Rights.exclusive_use ~cleanup:Revocation.Keep ())
  in
  Alcotest.(check int) "core refcount" 2 (Captree.refcount t (Resource.Cpu_core 1));
  let _ = ok (Captree.revoke t shared) in
  Alcotest.(check int) "core refcount restored" 1 (Captree.refcount t (Resource.Cpu_core 1))

(* Property: random interleavings of operations keep invariants and
   refcount consistency. *)

type op = Share of int * int | Grant of int * int | Split of int | Revoke of int

let gen_op =
  QCheck.Gen.(
    frequency
      [ (4, map2 (fun c d -> Share (c, d)) (0 -- 40) (0 -- 5));
        (2, map2 (fun c d -> Grant (c, d)) (0 -- 40) (0 -- 5));
        (2, map (fun c -> Split c) (0 -- 40));
        (2, map (fun c -> Revoke c) (0 -- 40)) ])

let print_op = function
  | Share (c, d) -> Printf.sprintf "Share(%d->%d)" c d
  | Grant (c, d) -> Printf.sprintf "Grant(%d->%d)" c d
  | Split c -> Printf.sprintf "Split(%d)" c
  | Revoke c -> Printf.sprintf "Revoke(%d)" c

let arb_ops =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map print_op l))
    QCheck.Gen.(list_size (0 -- 60) gen_op)

let run_ops ops =
  let t = Captree.create () in
  let root, _ =
    Result.get_ok (Captree.root t ~owner:0 (mem ~base:0 ~len:0x100000) Rights.full)
  in
  let caps = ref [ root ] in
  let pick i = List.nth !caps (i mod List.length !caps) in
  List.iter
    (fun op ->
      match op with
      | Share (c, d) -> (
        match
          Captree.share t (pick c) ~to_:d ~rights:Rights.full ~cleanup:Revocation.Zero ()
        with
        | Ok (id, _) -> caps := id :: !caps
        | Error _ -> ())
      | Grant (c, d) -> (
        match Captree.grant t (pick c) ~to_:d ~rights:Rights.full ~cleanup:Revocation.Zero with
        | Ok (id, _) -> caps := id :: !caps
        | Error _ -> ())
      | Split c -> (
        let cap = pick c in
        match Captree.resource t cap with
        | Some (Resource.Memory r) when Hw.Addr.Range.len r >= 2 -> (
          let at = Hw.Addr.Range.base r + (Hw.Addr.Range.len r / 2) in
          match Captree.split t cap ~at with
          | Ok (l, rg, _) -> caps := l :: rg :: !caps
          | Error _ -> ())
        | _ -> ())
      | Revoke c -> ignore (Captree.revoke t (pick c)))
    ops;
  t

(* Same op interpreter, but with a scalar (core) capability in the mix
   and an index/scan agreement check after EVERY step — a mutation that
   corrupts an incremental index is caught at the op that introduced
   it, not at the end of the sequence. *)
let run_ops_indexed ops =
  let t = Captree.create () in
  let root, _ =
    Result.get_ok (Captree.root t ~owner:0 (mem ~base:0 ~len:0x100000) Rights.full)
  in
  let core, _ = Result.get_ok (Captree.root t ~owner:0 (Resource.Cpu_core 0) Rights.full) in
  let caps = ref [ root; core ] in
  let pick i = List.nth !caps (i mod List.length !caps) in
  let step n op =
    (match op with
    | Share (c, d) -> (
      match
        Captree.share t (pick c) ~to_:d ~rights:Rights.full ~cleanup:Revocation.Zero ()
      with
      | Ok (id, _) -> caps := id :: !caps
      | Error _ -> ())
    | Grant (c, d) -> (
      match Captree.grant t (pick c) ~to_:d ~rights:Rights.full ~cleanup:Revocation.Zero with
      | Ok (id, _) -> caps := id :: !caps
      | Error _ -> ())
    | Split c -> (
      let cap = pick c in
      match Captree.resource t cap with
      | Some (Resource.Memory r) when Hw.Addr.Range.len r >= 2 -> (
        let at = Hw.Addr.Range.base r + (Hw.Addr.Range.len r / 2) in
        match Captree.split t cap ~at with
        | Ok (l, rg, _) -> caps := l :: rg :: !caps
        | Error _ -> ())
      | _ -> ())
    | Revoke c -> ignore (Captree.revoke t (pick c)));
    match Captree.check_index_consistency t with
    | Ok () -> ()
    | Error e ->
      QCheck.Test.fail_reportf "after op %d (%s): index inconsistency: %s" n (print_op op) e
  in
  List.iteri step ops;
  t

let prop_indexes_agree =
  QCheck.Test.make ~name:"captree: indexes agree with full scans after every op" ~count:100
    arb_ops
    (fun ops ->
      let t = run_ops_indexed ops in
      (* Final spot-checks on resources the consistency sweep does not
         enumerate directly: the whole root range and the scalar core. *)
      let whole = mem ~base:0 ~len:0x100000 in
      Captree.holders t whole = Captree.holders_reference t whole
      && Captree.refcount t whole = Captree.refcount_reference t whole
      && Captree.active_overlapping t whole = Captree.active_overlapping_reference t whole
      && Captree.holders t (Resource.Cpu_core 0)
         = Captree.holders_reference t (Resource.Cpu_core 0)
      && Captree.caps_of_domain t 0 = Captree.caps_of_domain_reference t 0
      && Captree.all_caps_of_domain t 0 = Captree.all_caps_of_domain_reference t 0)

let prop_invariants_hold =
  QCheck.Test.make ~name:"captree: invariants hold under random ops" ~count:200 arb_ops
    (fun ops -> Captree.check_invariants (run_ops ops) = Ok ())

(* Child sets are not checkpointed: restore derives them from the
   parent links and must land on the live sets exactly. *)
let prop_restore_children =
  QCheck.Test.make ~name:"captree: restore rebuilds every child set from parent links"
    ~count:100 arb_ops
    (fun ops ->
      let t = run_ops ops in
      let dump = Captree.dump t in
      let r =
        Captree.restore ~next_id:(Captree.next_id t) ~generation:(Captree.generation t) dump
      in
      Captree.dump r = dump
      && List.for_all
           (fun (n : Captree.node_spec) -> Captree.children r n.ns_id = Captree.children t n.ns_id)
           dump
      && Captree.check_invariants r = Ok ()
      && Captree.check_index_consistency r = Ok ())

let prop_refcount_consistent =
  QCheck.Test.make ~name:"captree: refcount equals region-map holders" ~count:100 arb_ops
    (fun ops ->
      let t = run_ops ops in
      List.for_all
        (fun (seg, holders) -> Captree.refcount t (Resource.Memory seg) = List.length holders)
        (Captree.region_map t))

let prop_region_map_disjoint =
  QCheck.Test.make ~name:"captree: region map segments are disjoint and sorted" ~count:100
    arb_ops
    (fun ops ->
      let t = run_ops ops in
      let rec check = function
        | (a, _) :: ((b, _) :: _ as rest) ->
          Hw.Addr.Range.limit a <= Hw.Addr.Range.base b && check rest
        | _ -> true
      in
      check (Captree.region_map t))

let prop_revoke_all_restores_root =
  QCheck.Test.make ~name:"captree: revoking every root child restores exclusivity"
    ~count:100 arb_ops
    (fun ops ->
      let t = run_ops ops in
      let rec find_root id =
        match Captree.parent t id with Some p -> find_root p | None -> id
      in
      match Captree.caps_of_domain t 0 with
      | [] -> true (* domain 0 may have granted everything away *)
      | c :: _ ->
        let root = find_root c in
        (match Captree.revoke_children t root with Ok _ -> () | Error _ -> ());
        Captree.is_active t root
        && Captree.check_invariants t = Ok ()
        && Captree.refcount t (Option.get (Captree.resource t root)) = 1)

(* Property: the frozen set is exactly the live remote-delegation set.
   Freeze marks a cap as delegated to another machine (Fleet's local
   record); under arbitrary interleaved share/revoke/freeze/thaw the
   tree's [frozen_caps] must track a reference model exactly — in
   particular no revocation path may ever remove a frozen cap (the
   remote machine still holds the resource), and thaw/revoke of
   already-gone ids must stay no-ops. *)

type fop = Fshare of int * int | Frevoke of int | Ffreeze of int | Fthaw of int

let gen_fop =
  QCheck.Gen.(
    frequency
      [ (4, map2 (fun c d -> Fshare (c, d)) (0 -- 40) (0 -- 5));
        (3, map (fun c -> Frevoke c) (0 -- 40));
        (3, map (fun c -> Ffreeze c) (0 -- 40));
        (2, map (fun c -> Fthaw c) (0 -- 40)) ])

let print_fop = function
  | Fshare (c, d) -> Printf.sprintf "Share(%d->%d)" c d
  | Frevoke c -> Printf.sprintf "Revoke(%d)" c
  | Ffreeze c -> Printf.sprintf "Freeze(%d)" c
  | Fthaw c -> Printf.sprintf "Thaw(%d)" c

let arb_fops =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map print_fop l))
    QCheck.Gen.(list_size (0 -- 80) gen_fop)

module IntSet = Set.Make (Int)

let prop_frozen_tracks_delegations =
  QCheck.Test.make ~name:"captree: frozen set = live remote-delegation set" ~count:200
    arb_fops
    (fun ops ->
      let t = Captree.create () in
      let root, _ =
        Result.get_ok (Captree.root t ~owner:0 (mem ~base:0 ~len:0x100000) Rights.full)
      in
      let caps = ref [ root ] in
      let model = ref IntSet.empty in
      let pick i = List.nth !caps (i mod List.length !caps) in
      List.iteri
        (fun n op ->
          (match (op, !caps) with
          | _, [] -> () (* the root itself was revoked; nothing left to drive *)
          | Fshare (c, d), _ -> (
            match
              Captree.share t (pick c) ~to_:d ~rights:Rights.full
                ~cleanup:Revocation.Zero ()
            with
            | Ok (id, _) -> caps := id :: !caps
            | Error _ -> ())
          | Frevoke c, _ ->
            let target = pick c in
            (match Captree.revoke t target with
            | Ok _ ->
              (* The whole subtree is gone; the model must not have
                 held any of it (revoke refuses on frozen content). *)
              caps := List.filter (Captree.is_active t) !caps;
              if
                List.exists
                  (fun f -> not (Captree.is_active t f))
                  (IntSet.elements !model)
              then
                QCheck.Test.fail_reportf
                  "after op %d (%s): revoke removed a frozen (delegated) cap" n
                  (print_fop op)
            | Error _ -> ())
          | Ffreeze c, _ -> (
            let target = pick c in
            match Captree.freeze t target with
            | Ok () -> model := IntSet.add target !model
            | Error _ -> ())
          | Fthaw c, _ ->
            let target = pick c in
            Captree.thaw t target;
            model := IntSet.remove target !model);
          let got = Captree.frozen_caps t in
          let want = IntSet.elements !model in
          if got <> want then
            QCheck.Test.fail_reportf
              "after op %d (%s): frozen_caps = [%s], model = [%s]" n (print_fop op)
              (String.concat ";" (List.map string_of_int got))
              (String.concat ";" (List.map string_of_int want));
          match Captree.check_invariants t with
          | Ok () -> ()
          | Error e ->
            QCheck.Test.fail_reportf "after op %d (%s): invariants: %s" n (print_fop op) e)
        ops;
      (* Round-trip: thaw everything — the delegation set must drain to
         empty and full service must resume (sharing works again). *)
      IntSet.iter (fun c -> Captree.thaw t c) !model;
      if Captree.frozen_caps t <> [] then
        QCheck.Test.fail_reportf "thawing every delegation left frozen caps behind";
      (if Captree.is_active t root then
         match
           Captree.share t root ~to_:1 ~rights:Rights.full ~cleanup:Revocation.Zero ()
         with
         | Ok _ -> ()
         | Error e ->
           QCheck.Test.fail_reportf "share refused after full thaw: %s"
             (Captree.error_to_string e));
      true)

(* Which frozen caps a revoke of [id] must refuse on, by definition:
   walk up from every frozen cap and see whether the walk meets [id].
   Revoke itself tests membership on the subtree it walks instead. *)
let frozen_in_subtree_reference t id =
  let rec up c = c = id || match Captree.parent t c with Some p -> up p | None -> false in
  List.filter up (Captree.frozen_caps t)

let prop_frozen_subtree_differential =
  QCheck.Test.make ~name:"captree: revoke refuses iff the walk-up finds a frozen cap below"
    ~count:300
    QCheck.(
      quad
        (list_of_size Gen.(0 -- 60) (pair small_nat small_nat))
        (list_of_size Gen.(0 -- 8) small_nat)
        small_nat bool)
    (fun (shares, frozen, target, children_only) ->
      let t, root = fresh_with_root () in
      let caps = ref [ root ] in
      let pick i = List.nth !caps (i mod List.length !caps) in
      List.iter
        (fun (c, d) ->
          match
            Captree.share t (pick c) ~to_:(d mod 6) ~rights:Rights.full
              ~cleanup:Revocation.Zero ()
          with
          | Ok (id, _) -> caps := id :: !caps
          | Error _ -> ())
        shares;
      List.iter (fun f -> ignore (Captree.freeze t (pick f))) frozen;
      let target = pick target in
      let want = frozen_in_subtree_reference t target in
      let got =
        if children_only then Captree.revoke_children t target else Captree.revoke t target
      in
      match (got, want) with
      | Ok _, [] -> true
      | Error (Captree.Frozen f), _ :: _ when List.mem f want -> true
      | Error (Captree.Frozen f), _ ->
        QCheck.Test.fail_reportf "refused with Frozen %d; frozen caps below %d: [%s]" f target
          (String.concat ";" (List.map string_of_int want))
      | Ok _, f :: _ -> QCheck.Test.fail_reportf "revoked %d with frozen cap %d below it" target f
      | Error e, _ -> QCheck.Test.fail_reportf "unexpected error %s" (Captree.error_to_string e))

(* A fleet freezes one proxy cap per live delegation, so thousands of
   frozen caps are normal; a revoke must not pay for the ones outside
   its subtree. Words allocated per share+revoke of an unrelated leaf
   (minor words plus words allocated straight into the major heap) with
   1,000 frozen caps elsewhere stay within 1.5x of the count with 10; a
   revoke that folds the whole frozen set reads about 17x. *)
let test_revoke_cost_ignores_frozen_elsewhere () =
  let words_per_pair frozen =
    let t, root = fresh_with_root () in
    let parked, _ =
      ok (Captree.share t root ~to_:1 ~rights:Rights.full ~cleanup:Revocation.Keep ())
    in
    for _ = 1 to frozen do
      let c, _ =
        ok (Captree.share t parked ~to_:2 ~rights:Rights.full ~cleanup:Revocation.Keep ())
      in
      ok (Captree.freeze t c)
    done;
    let pair () =
      let leaf, _ =
        ok (Captree.share t root ~to_:3 ~rights:Rights.full ~cleanup:Revocation.Keep ())
      in
      ignore (ok (Captree.revoke t leaf))
    in
    for _ = 1 to 100 do
      pair ()
    done;
    let words () =
      let _, promoted, major = Gc.counters () in
      Gc.minor_words () +. major -. promoted
    in
    let n = 1_000 in
    let w0 = words () in
    for _ = 1 to n do
      pair ()
    done;
    (words () -. w0) /. float_of_int n
  in
  let few = words_per_pair 10 and many = words_per_pair 1_000 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per pair with 1,000 frozen caps elsewhere vs %.0f with 10 (<= 1.5x)"
       many few)
    true
    (many <= 1.5 *. few)

(* The rights byte is the one codec the WAL, snapshots, fleet frames and
   migration manifests share: every 5-bit pattern round-trips, and a
   reserved bit (5-7) is refused rather than dropped. *)
let test_rights_bits () =
  for b = 0 to 31 do
    match Rights.of_bits b with
    | Some r -> Alcotest.(check int) "rights bits round-trip" b (Rights.to_bits r)
    | None -> Alcotest.failf "rights bits %d refused" b
  done;
  for b = 32 to 255 do
    if Rights.of_bits b <> None then Alcotest.failf "reserved rights bits %d accepted" b
  done

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "cap"
    [ ( "structure",
        [ Alcotest.test_case "root overlap" `Quick test_root_overlap;
          Alcotest.test_case "share basics" `Quick test_share_basics;
          Alcotest.test_case "share subrange" `Quick test_share_subrange;
          Alcotest.test_case "rights attenuation" `Quick test_rights_attenuation;
          Alcotest.test_case "grant moves" `Quick test_grant_moves;
          Alcotest.test_case "split + carve" `Quick test_split_and_carve;
          Alcotest.test_case "cores + devices" `Quick test_device_and_core_caps;
          Alcotest.test_case "caps_of_domain order" `Quick test_caps_of_domain_ordering;
          Alcotest.test_case "is_ancestor" `Quick test_is_ancestor ] );
      ( "revocation",
        [ Alcotest.test_case "cascade" `Quick test_revoke_cascade;
          Alcotest.test_case "grant reactivation" `Quick test_revoke_reactivates_granted_parent;
          Alcotest.test_case "split children" `Quick test_revoke_split_children;
          Alcotest.test_case "revoke_children" `Quick test_revoke_children_keeps_cap;
          Alcotest.test_case "circular sharing" `Quick test_circular_sharing_revocation;
          Alcotest.test_case "circular revocation index agreement" `Quick
            test_circular_revocation_index_agreement;
          Alcotest.test_case "revoke cost ignores frozen caps elsewhere" `Quick
            test_revoke_cost_ignores_frozen_elsewhere ] );
      ("codes", [ Alcotest.test_case "rights bits" `Quick test_rights_bits ]);
      ( "refcounts",
        [ Alcotest.test_case "Fig. 4 region map" `Quick test_fig4_region_map;
          Alcotest.test_case "region map merging" `Quick test_region_map_merging ] );
      ( "smoke-50k",
        [ Alcotest.test_case "deep chain" `Slow test_smoke_deep_chain;
          Alcotest.test_case "wide tree" `Slow test_smoke_wide_tree ] );
      ( "properties",
        [ qt prop_indexes_agree;
          qt prop_invariants_hold;
          qt prop_restore_children;
          qt prop_refcount_consistent;
          qt prop_region_map_disjoint;
          qt prop_revoke_all_restores_root;
          qt prop_frozen_tracks_delegations;
          qt prop_frozen_subtree_differential ] ) ]
