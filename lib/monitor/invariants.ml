type violation = { rule : string; detail : string }

let pp_violation fmt v = Format.fprintf fmt "[%s] %s" v.rule v.detail

let v rule fmt = Printf.ksprintf (fun detail -> { rule; detail }) fmt

let check_tree m =
  match Cap.Captree.check_invariants (Monitor.tree m) with
  | Ok () -> []
  | Error detail -> [ { rule = "tree-structure"; detail } ]

let domain_ranges m domain =
  List.filter_map
    (fun cap ->
      match Cap.Captree.resource (Monitor.tree m) cap with
      | Some (Cap.Resource.Memory r) -> Some r
      | _ -> None)
    (Cap.Captree.caps_of_domain (Monitor.tree m) domain)

let check_hardware_matches_tree m =
  let backend = Monitor.backend m in
  let tree = Monitor.tree m in
  let segments = Cap.Captree.region_map tree in
  List.concat_map
    (fun d ->
      let id = Domain.id d in
      let held = domain_ranges m id in
      List.filter_map
        (fun (seg, holders) ->
          let tree_says = List.mem id holders in
          let hw_says = backend.Backend_intf.domain_reaches d seg in
          if tree_says && not hw_says then
            Some (v "hw-matches-tree" "domain %d lost access to %s" id
                    (Format.asprintf "%a" Hw.Addr.Range.pp seg))
          else if hw_says && not tree_says then
            Some (v "hw-matches-tree" "domain %d reaches %s without a capability" id
                    (Format.asprintf "%a" Hw.Addr.Range.pp seg))
          else None)
        segments
      @
      (* Held ranges that fell out of the region map entirely. *)
      List.filter_map
        (fun r ->
          if backend.Backend_intf.domain_reaches d r then None
          else
            Some (v "hw-matches-tree" "domain %d holds %s but hardware blocks it" id
                    (Format.asprintf "%a" Hw.Addr.Range.pp r)))
        held)
    (Monitor.domains m)

(* [r] less every range in [cover]. *)
let uncovered r cover =
  List.fold_left
    (fun pieces c -> List.concat_map (fun p -> Hw.Addr.Range.subtract p c) pieces)
    [ r ] cover

let check_dma m =
  let tree = Monitor.tree m and machine = Monitor.machine m in
  let segments = Cap.Captree.region_map tree in
  let pp = Format.asprintf "%a" Hw.Addr.Range.pp in
  List.concat_map
    (fun device ->
      let bdf = Hw.Device.bdf device in
      let holders = Cap.Captree.holders tree (Cap.Resource.Device bdf) in
      let held =
        List.filter_map
          (fun (seg, hs) -> if List.exists (fun h -> List.mem h holders) hs then Some seg else None)
          segments
      in
      let windows = List.map fst (Hw.Iommu.windows machine.Hw.Machine.iommu ~device:bdf) in
      List.filter_map
        (fun seg ->
          if uncovered seg windows = [] then None
          else Some (v "dma-matches-tree" "device 0x%x lost DMA to %s" bdf (pp seg)))
        held
      @ List.concat_map
          (fun w ->
            List.map
              (fun piece ->
                v "dma-matches-tree" "device 0x%x reaches %s that no holder holds" bdf (pp piece))
              (uncovered w held))
          windows)
    machine.Hw.Machine.devices

let check_sealed_unextended m =
  List.concat_map
    (fun d ->
      if not (Domain.is_sealed d) then []
      else
        List.map
          (fun (range, h) ->
            v "sealed-unextended"
              "sealed domain %d's measured region %s reachable by %d"
              (Domain.id d)
              (Format.asprintf "%a" Hw.Addr.Range.pp range)
              h)
          (Monitor.measured_exposures m ~domain:(Domain.id d)
             (Domain.measured_ranges d)))
    (Monitor.domains m)

let check_no_stale_tlb m =
  let machine = Monitor.machine m in
  let tree = Monitor.tree m in
  List.filter_map
    (fun (asid, gpa, hpa) ->
      (* ASIDs equal domain ids in this system. *)
      let page = Hw.Addr.Range.make ~base:hpa ~len:Hw.Addr.page_size in
      let holders = Cap.Captree.holders tree (Cap.Resource.Memory page) in
      if List.mem asid holders then None
      else
        Some (v "no-stale-tlb" "ASID %d still translates gpa 0x%x to revoked hpa 0x%x"
                asid gpa hpa))
    (Hw.Tlb.all_entries machine.Hw.Machine.tlb)

let check_refcounts m =
  let tree = Monitor.tree m in
  List.filter_map
    (fun (seg, holders) ->
      let rc = Cap.Captree.refcount tree (Cap.Resource.Memory seg) in
      if rc = List.length holders then None
      else
        Some (v "refcount" "segment %s: refcount %d but %d holders"
                (Format.asprintf "%a" Hw.Addr.Range.pp seg) rc (List.length holders)))
    (Cap.Captree.region_map tree)

(* Remote proxy domains are pure bookkeeping: they stand in for a peer
   machine in the capability tree and must never acquire an execution
   identity — no seal, no entry point, never scheduled on a core. Any
   of those would let a "remote holder" run locally, silently widening
   C5's cross-machine exclusivity claims. *)
let check_remote m =
  let cores =
    let machine = Monitor.machine m in
    List.init (Array.length machine.Hw.Machine.cores) (fun i -> i)
  in
  List.concat_map
    (fun d ->
      if Domain.kind d <> Domain.Remote then []
      else
        let id = Domain.id d in
        (if Domain.is_sealed d then [ v "remote-inert" "remote proxy %d is sealed" id ]
         else [])
        @ (match Domain.entry_point d with
          | Some ep ->
            [ v "remote-inert" "remote proxy %d has entry point 0x%x" id ep ]
          | None -> [])
        @ List.filter_map
            (fun core ->
              if Monitor.current_domain m ~core = id then
                Some (v "remote-inert" "remote proxy %d is running on core %d" id core)
              else None)
            cores)
    (Monitor.domains m)

(* No exit-less switch into a dead domain: on real VT-x a VMFUNC slot
   holding a destroyed domain's EPT lets the list's owner enter freed
   translations without the monitor seeing it. *)
let check_switch_live m =
  List.map
    (fun (d, n) ->
      v "switch-live" "domain %d can switch without an exit into %d dead domain(s)" d n)
    ((Monitor.backend m).Backend_intf.stale_switches ())

let check_index m =
  match Cap.Captree.check_index_consistency (Monitor.tree m) with
  | Ok () -> []
  | Error detail -> [ { rule = "index-consistency"; detail } ]

let check_all m =
  check_tree m @ check_index m @ check_hardware_matches_tree m @ check_dma m
  @ check_sealed_unextended m @ check_no_stale_tlb m @ check_refcounts m
  @ check_remote m @ check_switch_live m
