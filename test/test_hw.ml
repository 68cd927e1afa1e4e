(* Tests for the simulated-hardware substrate. *)

open Hw

let range ~base ~len = Addr.Range.make ~base ~len

let test_addr_alignment () =
  Alcotest.(check bool) "aligned" true (Addr.is_page_aligned 0x3000);
  Alcotest.(check bool) "unaligned" false (Addr.is_page_aligned 0x3001);
  Alcotest.(check int) "align_down" 0x3000 (Addr.align_down 0x3fff);
  Alcotest.(check int) "align_up" 0x4000 (Addr.align_up 0x3001);
  Alcotest.(check int) "align_up exact" 0x3000 (Addr.align_up 0x3000)

let test_range_basics () =
  let r = range ~base:0x1000 ~len:0x2000 in
  Alcotest.(check int) "last" 0x2fff (Addr.Range.last r);
  Alcotest.(check int) "limit" 0x3000 (Addr.Range.limit r);
  Alcotest.(check bool) "contains base" true (Addr.Range.contains r 0x1000);
  Alcotest.(check bool) "excludes limit" false (Addr.Range.contains r 0x3000);
  Alcotest.check_raises "empty" (Invalid_argument "Addr.Range.make: non-positive length")
    (fun () -> ignore (range ~base:0 ~len:0))

let test_range_set_ops () =
  let a = range ~base:0x1000 ~len:0x2000 and b = range ~base:0x2000 ~len:0x2000 in
  Alcotest.(check bool) "overlap" true (Addr.Range.overlaps a b);
  (match Addr.Range.intersect a b with
  | Some i ->
    Alcotest.(check int) "intersect base" 0x2000 (Addr.Range.base i);
    Alcotest.(check int) "intersect len" 0x1000 (Addr.Range.len i)
  | None -> Alcotest.fail "expected intersection");
  (match Addr.Range.subtract a b with
  | [ left ] ->
    Alcotest.(check int) "left piece" 0x1000 (Addr.Range.base left);
    Alcotest.(check int) "left len" 0x1000 (Addr.Range.len left)
  | other -> Alcotest.failf "expected 1 piece, got %d" (List.length other));
  let hole = range ~base:0x1800 ~len:0x800 in
  (match Addr.Range.subtract a hole with
  | [ l; r ] ->
    Alcotest.(check int) "punch left" 0x1000 (Addr.Range.base l);
    Alcotest.(check int) "punch right" 0x2000 (Addr.Range.base r)
  | other -> Alcotest.failf "expected 2 pieces, got %d" (List.length other));
  Alcotest.(check (list int)) "disjoint subtract unchanged"
    [ 0x1000 ]
    (List.map Addr.Range.base (Addr.Range.subtract a (range ~base:0x8000 ~len:0x1000)))

let test_range_merge_split () =
  let a = range ~base:0x1000 ~len:0x1000 and b = range ~base:0x2000 ~len:0x1000 in
  Alcotest.(check bool) "adjacent" true (Addr.Range.adjacent a b);
  (match Addr.Range.merge a b with
  | Some m -> Alcotest.(check int) "merged len" 0x2000 (Addr.Range.len m)
  | None -> Alcotest.fail "expected merge");
  Alcotest.(check bool) "gap no merge" true
    (Addr.Range.merge a (range ~base:0x4000 ~len:0x1000) = None);
  (match Addr.Range.split_at a 0x1800 with
  | Some (l, r) ->
    Alcotest.(check int) "split left len" 0x800 (Addr.Range.len l);
    Alcotest.(check int) "split right base" 0x1800 (Addr.Range.base r)
  | None -> Alcotest.fail "expected split");
  Alcotest.(check bool) "split at edge fails" true (Addr.Range.split_at a 0x1000 = None)

let test_range_pages () =
  let r = range ~base:0x1800 ~len:0x1000 in
  Alcotest.(check (list int)) "straddling pages" [ 0x1000; 0x2000 ] (Addr.Range.pages r)

let test_physmem_rw () =
  let mem = Physmem.create ~size:(64 * 1024) in
  Physmem.write mem 0x100 "hello";
  Alcotest.(check string) "read back" "hello"
    (Physmem.read mem (range ~base:0x100 ~len:5));
  Physmem.write_byte mem 0x200 0x1FF;
  Alcotest.(check int) "byte masked" 0xFF (Physmem.read_byte mem 0x200);
  Alcotest.check_raises "oob read" (Physmem.Bus_error (64 * 1024)) (fun () ->
      ignore (Physmem.read_byte mem (64 * 1024)))

let test_physmem_zero_measure () =
  let mem = Physmem.create ~size:(64 * 1024) in
  Physmem.write mem 0x1000 "secret";
  let r = range ~base:0x1000 ~len:0x1000 in
  let before = Physmem.measure mem r in
  Physmem.zero_range mem r;
  let after = Physmem.measure mem r in
  Alcotest.(check bool) "measurement changed" false (Crypto.Sha256.equal before after);
  Alcotest.(check bool) "zeroed" true
    (Crypto.Sha256.equal after (Crypto.Sha256.string (String.make 0x1000 '\x00')));
  Alcotest.(check int) "content zero" 0 (Physmem.read_byte mem 0x1002)

let test_physmem_blit () =
  let mem = Physmem.create ~size:(64 * 1024) in
  Physmem.write mem 0 "copyme";
  Physmem.blit mem ~src:(range ~base:0 ~len:6) ~dst:0x2000;
  Alcotest.(check string) "copied" "copyme" (Physmem.read mem (range ~base:0x2000 ~len:6));
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Physmem.blit: overlapping ranges") (fun () ->
      Physmem.blit mem ~src:(range ~base:0 ~len:16) ~dst:8)

let page = Addr.page_size
let pm_pages = 16
let pm_size = pm_pages * page

(* Frames nobody wrote share one zero page: a write to one of them must
   not show through any other, in this memory or in another one. *)
let test_physmem_unwritten_pages_stay_zero () =
  let other = Physmem.create ~size:pm_size in
  let mem = Physmem.create ~size:pm_size in
  Physmem.write mem ((3 * page) + 10) "residue";
  Physmem.write_byte mem (5 * page) 0xAB;
  Physmem.blit mem ~src:(range ~base:((3 * page) + 10) ~len:7) ~dst:((7 * page) - 3);
  Physmem.zero_range mem (range ~base:(3 * page) ~len:page);
  Physmem.write mem ((3 * page) + 20) "again";
  let zeros = String.make page '\x00' in
  let page_of m p = Physmem.read m (range ~base:(p * page) ~len:page) in
  for p = 0 to pm_pages - 1 do
    if not (List.mem p [ 3; 5; 6; 7 ]) then
      Alcotest.(check string) (Printf.sprintf "page %d" p) zeros (page_of mem p);
    Alcotest.(check string) (Printf.sprintf "other memory, page %d" p) zeros (page_of other p)
  done;
  Alcotest.(check string) "rewritten after zeroing" "\x00again\x00"
    (Physmem.read mem (range ~base:((3 * page) + 19) ~len:7));
  Alcotest.(check string) "blit across a boundary" "residue"
    (Physmem.read mem (range ~base:((7 * page) - 3) ~len:7))

(* Host memory follows the pages written, not the machine's size: a
   flat 64 MiB buffer alone would be 8M words. *)
let test_physmem_footprint () =
  let words mem = Obj.reachable_words (Obj.repr mem) in
  let mem = Physmem.create ~size:(64 * 1024 * 1024) in
  let fresh = words mem in
  Alcotest.(check bool) (Printf.sprintf "fresh 64 MiB: %d words <= 32Ki" fresh) true
    (fresh <= 32 * 1024);
  let first = 100 and written = 12 in
  for p = first to first + written - 1 do
    Physmem.write_byte mem ((p * page) + p) 1
  done;
  let grown = words mem - fresh in
  Alcotest.(check bool)
    (Printf.sprintf "%d pages written: %d words <= 600 per page" written grown)
    true
    (grown <= 600 * written);
  Physmem.zero_range mem (range ~base:(first * page) ~len:(written * page));
  Alcotest.(check int) "zeroed pages are handed back" fresh (words mem)

(* Differential test: random writes, zeroing and blits, with offsets
   around page boundaries, on a 16-page memory and on a flat [Bytes]
   model of it. *)
type pm_op =
  | Pm_write of int * int * int (* address, length, fill seed *)
  | Pm_write_byte of int * int
  | Pm_zero of int * int
  | Pm_blit of int * int * int (* source, length, destination *)

type pm_step = { op : pm_op; probes : int list; span : int * int }
type pm_outcome = Done | Bus of int | Overlap

let pm_data len seed = String.init len (fun i -> Char.chr ((seed + (i * 31)) land 0xFF))

let gen_pm_addr =
  QCheck.Gen.(
    frequency
      [ (3, map2 (fun p d -> max 0 ((p * page) + d)) (0 -- pm_pages) (-24 -- 24));
        (1, 0 -- (pm_size + 64)) ])

let gen_pm_len =
  QCheck.Gen.(
    frequency
      [ (3, 1 -- 48); (2, map (fun d -> page + d) (-24 -- 24)); (1, 1 -- (3 * page)) ])

let gen_pm_step =
  let open QCheck.Gen in
  let op =
    frequency
      [ (3, map3 (fun a l s -> Pm_write (a, l, s)) gen_pm_addr gen_pm_len (0 -- 255));
        (2, map2 (fun a v -> Pm_write_byte (a, v)) gen_pm_addr (0 -- 511));
        (1, map2 (fun p n -> Pm_zero (p * page, n * page)) (0 -- (pm_pages - 1)) (1 -- 4));
        (2, map2 (fun a l -> Pm_zero (a, l)) gen_pm_addr gen_pm_len);
        (2, map3 (fun s l d -> Pm_blit (s, l, d)) gen_pm_addr gen_pm_len gen_pm_addr) ]
  in
  map3
    (fun op probes span -> { op; probes; span })
    op
    (list_size (1 -- 4) gen_pm_addr)
    (pair gen_pm_addr gen_pm_len)

let pm_print steps =
  String.concat "; "
    (List.map
       (fun { op; _ } ->
         match op with
         | Pm_write (a, l, s) -> Printf.sprintf "write %#x len %d seed %d" a l s
         | Pm_write_byte (a, v) -> Printf.sprintf "write_byte %#x %d" a v
         | Pm_zero (a, l) -> Printf.sprintf "zero %#x len %d" a l
         | Pm_blit (s, l, d) -> Printf.sprintf "blit %#x len %d to %#x" s l d)
       steps)

(* Apply one step to both memories; true when every observation agrees. *)
let pm_step_agrees mem model { op; probes; span } =
  let fault a len = if a + len > pm_size then Bus a else Done in
  let run f =
    match f () with
    | () -> Done
    | exception Physmem.Bus_error a -> Bus a
    | exception Invalid_argument _ -> Overlap
  in
  let expected, got =
    match op with
    | Pm_write (a, len, seed) ->
      let s = pm_data len seed in
      let e = fault a len in
      if e = Done then Bytes.blit_string s 0 model a len;
      (e, run (fun () -> Physmem.write mem a s))
    | Pm_write_byte (a, v) ->
      let e = fault a 1 in
      if e = Done then Bytes.set model a (Char.chr (v land 0xFF));
      (e, run (fun () -> Physmem.write_byte mem a v))
    | Pm_zero (a, len) ->
      let e = fault a len in
      if e = Done then Bytes.fill model a len '\x00';
      (e, run (fun () -> Physmem.zero_range mem (range ~base:a ~len)))
    | Pm_blit (s, len, d) ->
      let e =
        match (fault s len, fault d len) with
        | (Bus _ as e), _ | Done, (Bus _ as e) -> e
        | _ -> if s < d + len && d < s + len then Overlap else Done
      in
      if e = Done then Bytes.blit model s model d len;
      (e, run (fun () -> Physmem.blit mem ~src:(range ~base:s ~len) ~dst:d))
  in
  let probe a =
    match Physmem.read_byte mem a with
    | v -> a < pm_size && v = Char.code (Bytes.get model a)
    | exception Physmem.Bus_error b -> b = a && a >= pm_size
  in
  let base, len = span in
  let measured =
    match Physmem.measure mem (range ~base ~len) with
    | d ->
      base + len <= pm_size
      && Crypto.Sha256.equal d (Crypto.Sha256.string (Bytes.sub_string model base len))
    | exception Physmem.Bus_error b -> b = base && base + len > pm_size
  in
  expected = got
  && Physmem.read mem (Physmem.full_range mem) = Bytes.to_string model
  && List.for_all probe probes
  && measured

let prop_physmem_matches_flat =
  QCheck.Test.make ~name:"physmem: page frames match a flat model" ~count:200
    (QCheck.make ~print:pm_print QCheck.Gen.(list_size (1 -- 24) gen_pm_step))
    (fun steps ->
      let mem = Physmem.create ~size:pm_size and model = Bytes.make pm_size '\x00' in
      List.for_all (pm_step_agrees mem model) steps)

let test_perm () =
  Alcotest.(check bool) "rwx subsumes rx" true (Perm.subsumes Perm.rwx Perm.rx);
  Alcotest.(check bool) "rx !subsumes rw" false (Perm.subsumes Perm.rx Perm.rw);
  Alcotest.(check string) "render" "rw-" (Perm.to_string Perm.rw);
  Alcotest.(check bool) "union" true
    (Perm.equal (Perm.union Perm.r Perm.rw) Perm.rw);
  Alcotest.(check bool) "inter" true
    (Perm.equal (Perm.inter Perm.rx Perm.rw) Perm.r)

let counter () = Cycles.create ()

let test_ept_map_translate () =
  let c = counter () in
  let ept = Ept.create ~counter:c in
  Ept.map_page ept ~gpa:0x5000 ~hpa:0x9000 Perm.rw;
  Alcotest.(check int) "translate offset" 0x9123
    (Ept.translate ept ~gpa:0x5123 ~access:`Read);
  Alcotest.check_raises "exec denied"
    (Ept.Violation { gpa = 0x5000; access = `Exec })
    (fun () -> ignore (Ept.translate ept ~gpa:0x5000 ~access:`Exec));
  Alcotest.check_raises "unmapped"
    (Ept.Violation { gpa = 0x8000; access = `Read })
    (fun () -> ignore (Ept.translate ept ~gpa:0x8000 ~access:`Read));
  Alcotest.check_raises "unaligned" (Invalid_argument "Ept.map_page: unaligned address")
    (fun () -> Ept.map_page ept ~gpa:0x5001 ~hpa:0x9000 Perm.rw)

let test_ept_range_ops () =
  let c = counter () in
  let ept = Ept.create ~counter:c in
  Ept.map_range ept ~gpa:0x10000 (range ~base:0x10000 ~len:(4 * 4096)) Perm.rwx;
  Alcotest.(check int) "4 pages" 4 (Ept.mapped_pages ept);
  Alcotest.(check bool) "reaches" true
    (Ept.reaches_hpa_range ept (range ~base:0x11000 ~len:4096));
  let removed = Ept.unmap_hpa_range ept (range ~base:0x11000 ~len:(2 * 4096)) in
  Alcotest.(check int) "unmapped 2" 2 removed;
  Alcotest.(check int) "2 left" 2 (Ept.mapped_pages ept);
  Alcotest.(check bool) "no longer reaches" false
    (Ept.reaches_hpa_range ept (range ~base:0x11000 ~len:4096));
  Alcotest.(check bool) "hpa_reachable none" true
    (Perm.equal Perm.none (Ept.hpa_reachable ept 0x11000));
  Alcotest.(check bool) "hpa_reachable rwx" true
    (Perm.equal Perm.rwx (Ept.hpa_reachable ept 0x10000))

let test_eptp_list () =
  let c = counter () in
  let l = Ept.Eptp_list.create () in
  let e1 = Ept.create ~counter:c and e2 = Ept.create ~counter:c in
  Alcotest.(check (option int)) "register first" (Some 0) (Ept.Eptp_list.register l e1);
  Alcotest.(check (option int)) "register second" (Some 1) (Ept.Eptp_list.register l e2);
  Alcotest.(check (option int)) "idempotent" (Some 0) (Ept.Eptp_list.register l e1);
  Alcotest.(check int) "count" 2 (Ept.Eptp_list.count l);
  (* A vacated slot is the next one reused. *)
  Alcotest.(check bool) "unregister" true (Ept.Eptp_list.unregister l e1);
  Alcotest.(check (option int)) "slot freed" None (Ept.Eptp_list.slot_of l e1);
  Alcotest.(check bool) "get freed slot" true (Option.is_none (Ept.Eptp_list.get l 0));
  Alcotest.(check int) "count after unregister" 1 (Ept.Eptp_list.count l);
  Alcotest.(check bool) "unregister absent" false (Ept.Eptp_list.unregister l e1);
  let e3 = Ept.create ~counter:c in
  Alcotest.(check (option int)) "reuses freed slot" (Some 0) (Ept.Eptp_list.register l e3);
  Alcotest.(check (option int)) "fresh slot after reuse" (Some 2) (Ept.Eptp_list.register l e1);
  Alcotest.(check int) "count after reuse" 3 (Ept.Eptp_list.count l);
  (* Fill to capacity. *)
  for _ = 4 to Ept.Eptp_list.max_entries do
    ignore (Ept.Eptp_list.register l (Ept.create ~counter:c))
  done;
  Alcotest.(check int) "count when full" Ept.Eptp_list.max_entries (Ept.Eptp_list.count l);
  let late = Ept.create ~counter:c in
  Alcotest.(check (option int)) "full list rejects" None (Ept.Eptp_list.register l late);
  (* One removal makes room in a full list. *)
  Alcotest.(check bool) "unregister from full" true (Ept.Eptp_list.unregister l e2);
  Alcotest.(check (option int)) "full list accepts after removal" (Some 1)
    (Ept.Eptp_list.register l late);
  Alcotest.(check bool) "slot holds the new EPT" true
    (match Ept.Eptp_list.get l 1 with Some e -> e == late | None -> false)

let test_pmp_priority_and_modes () =
  let c = counter () in
  let pmp = Pmp.create ~entries:8 ~counter:c () in
  (* Entry 0 denies a subrange that entry 1 would allow: priority wins. *)
  Pmp.set pmp ~index:0 (range ~base:0x2000 ~len:0x1000) Perm.none ~locked:false;
  Pmp.set pmp ~index:1 (range ~base:0x0 ~len:0x10000) Perm.rw ~locked:false;
  Alcotest.check_raises "priority deny"
    (Pmp.Fault { addr = 0x2800; access = `Read })
    (fun () -> Pmp.check pmp ~mode:`U 0x2800 `Read);
  Pmp.check pmp ~mode:`U 0x1000 `Read;
  Alcotest.check_raises "no match denies U"
    (Pmp.Fault { addr = 0x20000; access = `Write })
    (fun () -> Pmp.check pmp ~mode:`U 0x20000 `Write);
  (* M-mode passes unmatched and unlocked regions. *)
  Pmp.check pmp ~mode:`M 0x20000 `Write;
  Pmp.check pmp ~mode:`M 0x2800 `Read;
  (* Locked entries bind M-mode too. *)
  Pmp.set pmp ~index:2 (range ~base:0x40000 ~len:0x1000) Perm.none ~locked:true;
  Alcotest.check_raises "locked binds M"
    (Pmp.Fault { addr = 0x40000; access = `Read })
    (fun () -> Pmp.check pmp ~mode:`M 0x40000 `Read)

let test_pmp_entry_management () =
  let c = counter () in
  let pmp = Pmp.create ~entries:4 ~counter:c () in
  Alcotest.(check int) "all free" 4 (Pmp.free_entries pmp);
  Pmp.set pmp ~index:1 (range ~base:0 ~len:4096) Perm.r ~locked:false;
  Alcotest.(check (option int)) "find_free skips used" (Some 0) (Pmp.find_free pmp);
  Pmp.set pmp ~index:0 (range ~base:4096 ~len:4096) Perm.r ~locked:true;
  Alcotest.check_raises "locked immutable" (Invalid_argument "Pmp.set: entry is locked")
    (fun () -> Pmp.set pmp ~index:0 (range ~base:0 ~len:4096) Perm.rw ~locked:false);
  Alcotest.check_raises "locked unclearable"
    (Invalid_argument "Pmp.clear: entry is locked") (fun () -> Pmp.clear pmp ~index:0);
  Pmp.reset pmp;
  Alcotest.(check int) "reset clears locked" 4 (Pmp.free_entries pmp)

let test_pmp_allows_range () =
  let c = counter () in
  let pmp = Pmp.create ~entries:4 ~counter:c () in
  Pmp.set pmp ~index:0 (range ~base:0x1000 ~len:0x2000) Perm.rw ~locked:false;
  Alcotest.(check bool) "inside allowed" true
    (Pmp.allows_range pmp ~mode:`U (range ~base:0x1000 ~len:0x2000) `Read);
  Alcotest.(check bool) "straddling denied" false
    (Pmp.allows_range pmp ~mode:`U (range ~base:0x1000 ~len:0x3000) `Read);
  Alcotest.(check bool) "exec denied" false
    (Pmp.allows_range pmp ~mode:`U (range ~base:0x1000 ~len:0x1000) `Exec)

let test_iommu () =
  let c = counter () in
  let iommu = Iommu.create ~counter:c in
  Iommu.grant iommu ~device:7 (range ~base:0x1000 ~len:0x2000) Perm.rw;
  Iommu.check iommu ~device:7 0x1800 `Write;
  Alcotest.check_raises "outside window"
    (Iommu.Dma_fault { device = 7; addr = 0x4000 })
    (fun () -> Iommu.check iommu ~device:7 0x4000 `Read);
  Alcotest.check_raises "unknown device"
    (Iommu.Dma_fault { device = 9; addr = 0x1000 })
    (fun () -> Iommu.check iommu ~device:9 0x1000 `Read);
  (* Revoking the middle splits the window. *)
  Iommu.revoke_range iommu ~device:7 (range ~base:0x1800 ~len:0x800);
  Iommu.check iommu ~device:7 0x1000 `Read;
  Iommu.check iommu ~device:7 0x2000 `Read;
  Alcotest.check_raises "revoked hole"
    (Iommu.Dma_fault { device = 7; addr = 0x1800 })
    (fun () -> Iommu.check iommu ~device:7 0x1800 `Read);
  Alcotest.(check int) "two windows" 2 (List.length (Iommu.windows iommu ~device:7));
  Iommu.revoke_all iommu ~device:7;
  Alcotest.(check bool) "nothing reaches" false
    (Iommu.device_reaches iommu ~device:7 (range ~base:0 ~len:0x100000))

let test_device () =
  let gpu = Device.create ~kind:Device.Gpu ~bus:3 ~dev:0 ~fn:0 ~sriov_vfs:2 () in
  Alcotest.(check string) "bdf string" "03:00.0" (Device.bdf_string gpu);
  Alcotest.(check int) "vf count" 2 (List.length (Device.virtual_functions gpu));
  List.iter
    (fun vf ->
      Alcotest.(check bool) "vf flag" true (Device.is_virtual_function vf);
      Alcotest.(check bool) "distinct bdf" true (Device.bdf vf <> Device.bdf gpu))
    (Device.virtual_functions gpu);
  Alcotest.check_raises "bad bdf" (Invalid_argument "Device.create: invalid BDF")
    (fun () -> ignore (Device.create ~kind:Device.Nic ~bus:256 ~dev:0 ~fn:0 ()))

let test_device_dma () =
  let c = counter () in
  let mem = Physmem.create ~size:(64 * 1024) in
  let iommu = Iommu.create ~counter:c in
  let nic = Device.create ~kind:Device.Nic ~bus:1 ~dev:0 ~fn:0 () in
  Iommu.grant iommu ~device:(Device.bdf nic) (range ~base:0x1000 ~len:0x1000) Perm.rw;
  Device.dma_write nic iommu mem 0x1000 "packet";
  Alcotest.(check string) "dma write landed" "packet"
    (Device.dma_read nic iommu mem (range ~base:0x1000 ~len:6));
  Alcotest.check_raises "dma outside window"
    (Iommu.Dma_fault { device = Device.bdf nic; addr = 0x3000 })
    (fun () -> Device.dma_write nic iommu mem 0x3000 "evil")

let test_tlb () =
  let c = counter () in
  let tlb = Tlb.create ~counter:c in
  Tlb.fill tlb ~asid:1 ~gpa:0x5000 ~hpa:0x9000;
  Alcotest.(check (option int)) "hit with offset" (Some 0x9123)
    (Tlb.lookup tlb ~asid:1 ~gpa:0x5123);
  Alcotest.(check (option int)) "other asid misses" None
    (Tlb.lookup tlb ~asid:2 ~gpa:0x5000);
  Tlb.fill tlb ~asid:2 ~gpa:0x5000 ~hpa:0xa000;
  Alcotest.(check int) "stale entries found" 1
    (List.length (Tlb.stale_for_hpa tlb (range ~base:0x9000 ~len:4096)));
  Tlb.flush_asid tlb ~asid:1;
  Alcotest.(check (option int)) "asid flushed" None (Tlb.lookup tlb ~asid:1 ~gpa:0x5000);
  Alcotest.(check bool) "other asid survives" true
    (Tlb.lookup tlb ~asid:2 ~gpa:0x5000 <> None);
  Tlb.flush_all tlb;
  Alcotest.(check int) "all flushed" 0 (Tlb.entries tlb)

let test_tlb_shootdown_cost () =
  let c = counter () in
  let tlb = Tlb.create ~counter:c in
  Cycles.reset c;
  Tlb.shootdown tlb ~remote_cores:3;
  Alcotest.(check int) "IPI cost per remote core"
    ((3 * Cycles.Cost.tlb_shootdown_ipi) + Cycles.Cost.tlb_flush_full)
    (Cycles.read c)

let test_cache () =
  let c = counter () in
  let cache = Cache.create ~counter:c in
  Cache.touch cache ~tag:1 0x100;
  Cache.touch cache ~tag:1 0x140;
  Cache.touch cache ~tag:2 0x100;
  (* tag 2 stole the line at 0x100 *)
  Alcotest.(check int) "resident" 2 (Cache.resident_lines cache);
  Alcotest.(check int) "tag1 lines" 1 (Cache.lines_tagged cache ~tag:1);
  Alcotest.(check int) "tag2 lines" 1 (Cache.lines_tagged cache ~tag:2);
  Cache.flush_range cache (range ~base:0x100 ~len:64);
  Alcotest.(check int) "line flushed" 0 (Cache.lines_tagged cache ~tag:2);
  Cache.flush_all cache;
  Alcotest.(check int) "all flushed" 0 (Cache.resident_lines cache)

let test_cycles () =
  let c = counter () in
  Cycles.charge c 100;
  let (), spent = Cycles.charged c (fun () -> Cycles.charge c 42) in
  Alcotest.(check int) "charged measures delta" 42 spent;
  Alcotest.(check int) "total accumulates" 142 (Cycles.read c);
  Cycles.reset c;
  Alcotest.(check int) "reset" 0 (Cycles.read c)

let test_interrupts () =
  let c = counter () in
  let ic = Interrupt.create ~counter:c in
  Interrupt.route ic ~vector:32 ~core:1;
  Interrupt.permit ic ~device:7 ~vector:32;
  Alcotest.(check int) "delivered to core" 1 (Interrupt.post ic ~device:7 ~vector:32);
  Alcotest.(check (list (pair int int))) "pending" [ (7, 32) ] (Interrupt.pending ic ~core:1);
  Interrupt.ack ic ~core:1;
  Alcotest.(check (list (pair int int))) "acked" [] (Interrupt.pending ic ~core:1);
  Alcotest.check_raises "unpermitted blocked"
    (Interrupt.Blocked { device = 8; vector = 32 })
    (fun () -> ignore (Interrupt.post ic ~device:8 ~vector:32));
  Interrupt.revoke_device ic ~device:7;
  Alcotest.check_raises "revoked blocked"
    (Interrupt.Blocked { device = 7; vector = 32 })
    (fun () -> ignore (Interrupt.post ic ~device:7 ~vector:32))

let test_machine () =
  let m = Hw.Machine.create ~arch:Cpu.Riscv64 ~cores:3 ~mem_size:(1024 * 1024) () in
  Alcotest.(check int) "cores" 3 (Array.length m.Machine.cores);
  let gpu = Device.create ~kind:Device.Gpu ~bus:1 ~dev:0 ~fn:0 ~sriov_vfs:1 () in
  Machine.attach_device m gpu;
  Alcotest.(check int) "device + vf attached" 2 (List.length m.Machine.devices);
  Alcotest.(check bool) "find by bdf" true (Machine.find_device m ~bdf:(Device.bdf gpu) <> None);
  Alcotest.check_raises "bad core" (Invalid_argument "Machine.core: bad core id")
    (fun () -> ignore (Machine.core m 3))

let test_cpu_modes () =
  let c = counter () in
  let x86 = Cpu.create ~arch:Cpu.X86_64 ~id:0 ~counter:c in
  let rv = Cpu.create ~arch:Cpu.Riscv64 ~id:0 ~counter:c in
  Alcotest.check_raises "x86 has no pmp"
    (Invalid_argument "Cpu.pmp: x86 cores have no PMP file") (fun () ->
      ignore (Cpu.pmp x86));
  Alcotest.check_raises "riscv has no ept"
    (Invalid_argument "Cpu.set_active_ept: RISC-V cores have no EPT") (fun () ->
      Cpu.set_active_ept rv None);
  Alcotest.check_raises "cross-arch mode"
    (Invalid_argument "Cpu.set_mode: wrong architecture") (fun () ->
      Cpu.set_mode x86 (Cpu.Riscv Cpu.M));
  Cpu.set_mode rv (Cpu.Riscv Cpu.U);
  Alcotest.(check bool) "mode set" true (Cpu.mode rv = Cpu.Riscv Cpu.U)

(* Property tests over ranges. *)

let gen_range =
  QCheck.Gen.(
    map2
      (fun base len -> Addr.Range.make ~base ~len)
      (map (fun b -> b * 256) (0 -- 200))
      (map (fun l -> (l + 1) * 256) (0 -- 50)))

let arb_range = QCheck.make ~print:(Format.asprintf "%a" Addr.Range.pp) gen_range

let prop_subtract_disjoint =
  QCheck.Test.make ~name:"range: subtract pieces are disjoint from subtrahend" ~count:200
    QCheck.(pair arb_range arb_range)
    (fun (a, b) ->
      List.for_all (fun piece -> not (Addr.Range.overlaps piece b)) (Addr.Range.subtract a b))

let prop_subtract_preserves_bytes =
  QCheck.Test.make ~name:"range: subtract + intersect partition the bytes" ~count:200
    QCheck.(pair arb_range arb_range)
    (fun (a, b) ->
      let pieces = Addr.Range.subtract a b in
      let inter = match Addr.Range.intersect a b with Some i -> Addr.Range.len i | None -> 0 in
      List.fold_left (fun acc r -> acc + Addr.Range.len r) 0 pieces + inter
      = Addr.Range.len a)

let prop_split_partitions =
  QCheck.Test.make ~name:"range: split partitions exactly" ~count:200
    QCheck.(pair arb_range (int_range 1 10_000_000))
    (fun (r, at) ->
      match Addr.Range.split_at r at with
      | None -> at <= Addr.Range.base r || at >= Addr.Range.limit r
      | Some (l, rg) ->
        Addr.Range.limit l = Addr.Range.base rg
        && Addr.Range.base l = Addr.Range.base r
        && Addr.Range.limit rg = Addr.Range.limit r)

let prop_merge_inverse_of_split =
  QCheck.Test.make ~name:"range: merge undoes split" ~count:200 arb_range (fun r ->
      let mid = Addr.Range.base r + (Addr.Range.len r / 2) in
      match Addr.Range.split_at r mid with
      | None -> true
      | Some (l, rg) -> (
        match Addr.Range.merge l rg with
        | Some m -> Addr.Range.equal m r
        | None -> false))

(* [gen_range] works in 256-byte cells, so coverage is compared cell
   by cell over every cell a generated range can reach. *)
let prop_union =
  QCheck.Test.make ~name:"range: union is sorted, separated and covers the same bytes"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 12) arb_range)
    (fun rs ->
      let u = Addr.Range.union rs in
      let rec separated = function
        | a :: (b :: _ as rest) -> Addr.Range.limit a < Addr.Range.base b && separated rest
        | _ -> true
      in
      let covered rs cell = List.exists (fun r -> Addr.Range.contains r (cell * 256)) rs in
      separated u
      && List.for_all (fun cell -> covered rs cell = covered u cell) (List.init 252 Fun.id))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "hw"
    [ ( "addr",
        [ Alcotest.test_case "alignment" `Quick test_addr_alignment;
          Alcotest.test_case "range basics" `Quick test_range_basics;
          Alcotest.test_case "set operations" `Quick test_range_set_ops;
          Alcotest.test_case "merge/split" `Quick test_range_merge_split;
          Alcotest.test_case "pages" `Quick test_range_pages;
          qt prop_subtract_disjoint;
          qt prop_subtract_preserves_bytes;
          qt prop_split_partitions;
          qt prop_merge_inverse_of_split;
          qt prop_union ] );
      ( "physmem",
        [ Alcotest.test_case "read/write" `Quick test_physmem_rw;
          Alcotest.test_case "zero + measure" `Quick test_physmem_zero_measure;
          Alcotest.test_case "blit" `Quick test_physmem_blit;
          Alcotest.test_case "unwritten pages stay zero" `Quick
            test_physmem_unwritten_pages_stay_zero;
          Alcotest.test_case "footprint follows pages written" `Quick test_physmem_footprint;
          qt prop_physmem_matches_flat ] );
      ("perm", [ Alcotest.test_case "lattice" `Quick test_perm ]);
      ( "ept",
        [ Alcotest.test_case "map/translate" `Quick test_ept_map_translate;
          Alcotest.test_case "range ops" `Quick test_ept_range_ops;
          Alcotest.test_case "eptp list" `Quick test_eptp_list ] );
      ( "pmp",
        [ Alcotest.test_case "priority + modes" `Quick test_pmp_priority_and_modes;
          Alcotest.test_case "entry management" `Quick test_pmp_entry_management;
          Alcotest.test_case "allows_range" `Quick test_pmp_allows_range ] );
      ( "iommu+device",
        [ Alcotest.test_case "iommu windows" `Quick test_iommu;
          Alcotest.test_case "devices + SR-IOV" `Quick test_device;
          Alcotest.test_case "dma through iommu" `Quick test_device_dma ] );
      ( "microarch",
        [ Alcotest.test_case "tlb" `Quick test_tlb;
          Alcotest.test_case "tlb shootdown cost" `Quick test_tlb_shootdown_cost;
          Alcotest.test_case "cache tags" `Quick test_cache;
          Alcotest.test_case "cycle accounting" `Quick test_cycles ] );
      ( "machine",
        [ Alcotest.test_case "interrupt routing" `Quick test_interrupts;
          Alcotest.test_case "assembly" `Quick test_machine;
          Alcotest.test_case "cpu modes" `Quick test_cpu_modes ] ) ]
