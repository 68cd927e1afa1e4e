include Op

type response = (result_value, Monitor.error) result

let pp_response fmt = function
  | Ok R_unit -> Format.pp_print_string fmt "ok"
  | Ok (R_domain d) -> Format.fprintf fmt "ok domain #%d" d
  | Ok (R_cap c) -> Format.fprintf fmt "ok cap %d" c
  | Ok (R_cap_pair (a, b)) -> Format.fprintf fmt "ok caps (%d,%d)" a b
  | Ok (R_caps caps) -> Format.fprintf fmt "ok %d caps" (List.length caps)
  | Ok (R_attestation att) -> Format.fprintf fmt "ok attestation #%d" att.Attestation.domain
  | Ok (R_path p) -> Format.fprintf fmt "ok %a" Backend_intf.pp_transition_path p
  | Error e -> Format.fprintf fmt "error: %a" Monitor.pp_error e

(* One hoisted span handle per call variant: dispatching pays no string
   concatenation and no registry lookup, just the span itself. *)
let h_create_domain = Obs.Profile.handle "api.create_domain"
let h_set_entry_point = Obs.Profile.handle "api.set_entry_point"
let h_set_flush_policy = Obs.Profile.handle "api.set_flush_policy"
let h_mark_measured = Obs.Profile.handle "api.mark_measured"
let h_seal = Obs.Profile.handle "api.seal"
let h_destroy = Obs.Profile.handle "api.destroy"
let h_share = Obs.Profile.handle "api.share"
let h_grant = Obs.Profile.handle "api.grant"
let h_split = Obs.Profile.handle "api.split"
let h_carve = Obs.Profile.handle "api.carve"
let h_revoke = Obs.Profile.handle "api.revoke"
let h_enumerate = Obs.Profile.handle "api.enumerate"
let h_attest = Obs.Profile.handle "api.attest"
let h_call = Obs.Profile.handle "api.call"
let h_return = Obs.Profile.handle "api.return"

let op_handle = function
  | Create_domain _ -> h_create_domain
  | Set_entry_point _ -> h_set_entry_point
  | Set_flush_policy _ -> h_set_flush_policy
  | Mark_measured _ -> h_mark_measured
  | Seal _ -> h_seal
  | Destroy _ -> h_destroy
  | Share _ -> h_share
  | Grant _ -> h_grant
  | Split _ -> h_split
  | Carve _ -> h_carve
  | Revoke _ -> h_revoke
  | Enumerate -> h_enumerate
  | Attest _ -> h_attest
  | Call _ -> h_call
  | Return -> h_return

(* The backend name is the same physical string for the life of a
   monitor, so a one-entry cache turns per-dispatch interning into a
   pointer compare (the hashtable is only hit when replays alternate
   between backends). *)
let last_bk_name = ref ""
let last_bk_id = ref 0

let backend_id name =
  if name == !last_bk_name then !last_bk_id
  else begin
    let id = Obs.intern name in
    last_bk_name := name;
    last_bk_id := id;
    id
  end

(* The single choke point every monitor call funnels through, so one
   span here guarantees a balanced begin/end pair per operation:
   [Monitor.exec] returns every error as a value, and
   [Obs.Profile.span_h] itself is exception-safe for anything injected
   deeper down. *)
let dispatch m ~caller ~core call : response =
  Obs.Profile.span_h ~domain:caller
    ~backend:(backend_id (Monitor.backend m).Backend_intf.backend_name)
    (op_handle call)
  @@ fun () -> Monitor.exec m ~caller ~core call
