type pid = int

type state = Ready | Running | Blocked | Exited of int

type ctx = {
  pid : pid;
  core : int;
  mem : Hw.Addr.Range.t;
  read : Hw.Addr.t -> int -> (string, string) result;
  write : Hw.Addr.t -> string -> (unit, string) result;
  sys_yield : unit -> unit;
  sys_exit : int -> unit;
  sys_log : string -> unit;
  sys_spawn_enclave :
    image:Image.t -> at_offset:int -> (Libtyche.Handle.t, string) result;
  sys_call_enclave :
    Libtyche.Handle.t -> (Tyche.Backend_intf.transition_path, string) result;
  sys_return : unit -> (Tyche.Backend_intf.transition_path, string) result;
}

type program = ctx -> [ `Yield | `Done of int ]

type t = {
  pid : pid;
  name : string;
  mem : Hw.Addr.Range.t;
  core : int;
  page_table : Hw.Page_table.t;
  program : program;
  mutable state : state;
}

let make ~pid ~name ~mem ~core ~page_table ~program =
  { pid; name; mem; core; page_table; program; state = Ready }

let core t = t.core

let page_table t = t.page_table

let pid t = t.pid
let name t = t.name
let mem t = t.mem
let state t = t.state
let set_state t s = t.state <- s
let program t = t.program
