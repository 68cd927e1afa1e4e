type id = int

let initial = 0

type kind = Os | Sandbox | Enclave | Confidential_vm | Io_domain | Remote

let kind_to_string = function
  | Os -> "os"
  | Sandbox -> "sandbox"
  | Enclave -> "enclave"
  | Confidential_vm -> "confidential-vm"
  | Io_domain -> "io-domain"
  | Remote -> "remote"

let pp_kind fmt k = Format.pp_print_string fmt (kind_to_string k)

let kind_to_code = function
  | Os -> 0
  | Sandbox -> 1
  | Enclave -> 2
  | Confidential_vm -> 3
  | Io_domain -> 4
  | Remote -> 5

let kind_of_code = function
  | 0 -> Some Os
  | 1 -> Some Sandbox
  | 2 -> Some Enclave
  | 3 -> Some Confidential_vm
  | 4 -> Some Io_domain
  | 5 -> Some Remote
  | _ -> None

type t = {
  id : id;
  name : string;
  kind : kind;
  created_by : id option;
  mutable sealed : bool;
  mutable entry_point : Hw.Addr.t option;
  mutable measured : Hw.Addr.Range.t list;
  mutable flush_on_transition : bool;
  mutable measurement : Crypto.Sha256.digest option;
  (* Volatile: a live-migration source sets this while the domain is
     streamed out, so the monitor refuses runs/config/attach until the
     transfer commits or aborts. Never serialized — a crash-restart
     clears it, and the migration journal re-establishes it on resume. *)
  mutable migrating : bool;
}

let make ~id ~name ~kind ~created_by =
  { id; name; kind; created_by; sealed = false; entry_point = None; measured = [];
    flush_on_transition = false; measurement = None; migrating = false }

(* Recovery-only constructor: rebuilds a domain from a checkpoint,
   including post-seal state [make] can never produce. [measured] is in
   declaration order, as [measured_ranges] reports it; storage is
   most-recent-first. *)
let restore ~id ~name ~kind ~created_by ~sealed ~entry_point ~measured
    ~flush_on_transition ~measurement =
  { id; name; kind; created_by; sealed; entry_point; measured = List.rev measured;
    flush_on_transition; measurement; migrating = false }

let id t = t.id
let name t = t.name
let kind t = t.kind
let created_by t = t.created_by
let asid t = t.id
let is_sealed t = t.sealed
let entry_point t = t.entry_point

let set_entry_point t a =
  if t.sealed then Error "domain is sealed" else (t.entry_point <- Some a; Ok ())

let measured_ranges t = List.rev t.measured

let add_measured_range t r =
  if t.sealed then Error "domain is sealed" else (t.measured <- r :: t.measured; Ok ())

let flush_on_transition t = t.flush_on_transition
let set_flush_on_transition t v = t.flush_on_transition <- v

let seal t ~measurement =
  if t.sealed then Error "domain already sealed"
  else if t.entry_point = None then Error "cannot seal a domain without an entry point"
  else begin
    t.sealed <- true;
    t.measurement <- Some measurement;
    Ok ()
  end

let measurement t = t.measurement
let is_migrating t = t.migrating
let set_migrating t v = t.migrating <- v

let pp fmt t =
  Format.fprintf fmt "domain#%d(%s,%a%s)" t.id t.name pp_kind t.kind
    (if t.sealed then ",sealed" else "")
