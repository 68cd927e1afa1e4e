type transition_path = Fast_switch | Trap_roundtrip

let pp_transition_path fmt = function
  | Fast_switch -> Format.pp_print_string fmt "fast-switch"
  | Trap_roundtrip -> Format.pp_print_string fmt "trap-roundtrip"

type t = {
  backend_name : string;
  domain_created : Domain.t -> unit;
  domain_destroyed : Domain.t -> unit;
  apply_effect : Cap.Captree.effect -> (unit, string) result;
  validate_attach : Domain.t -> Cap.Resource.t -> (unit, string) result;
  transition :
    core:Hw.Cpu.t -> from_:Domain.t -> to_:Domain.t -> flush_microarch:bool ->
    (transition_path, string) result;
  launch : core:Hw.Cpu.t -> Domain.t -> unit;
  domain_reaches : Domain.t -> Hw.Addr.Range.t -> bool;
  domain_encrypted : Domain.t -> bool;
  stale_switches : unit -> (Domain.id * int) list;
  txn_begin : unit -> unit;
  txn_commit : unit -> unit;
  txn_rollback : unit -> unit;
}
