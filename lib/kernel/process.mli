(** Kernel processes.

    Processes are the *kernel's* abstraction, as in any commodity OS:
    bookkeeping plus a memory arena allocated from the kernel heap. The
    monitor knows nothing about them — and that is the paper's
    architectural point (§3.5): "the OS still provides the process
    abstraction, while the monitor transparently allows sub-compartments
    within a process." A process spawns such a sub-compartment (an
    enclave holding part of the process's own memory) through the
    syscall interface without the kernel's isolation code being
    involved. *)

type pid = int

type state = Ready | Running | Blocked | Exited of int

(** What a program can do during its quantum: the syscall interface. *)
type ctx = {
  pid : pid;
  core : int;
  mem : Hw.Addr.Range.t; (** The arena's *physical* placement. *)
  read : Hw.Addr.t -> int -> (string, string) result;
  (** [read vaddr len]: process-virtual addresses, 0-based. The kernel
      installs the process's page table on the core for the quantum, so
      the hardware performs vaddr -> physical -> EPT/PMP translation. *)
  write : Hw.Addr.t -> string -> (unit, string) result;
  sys_yield : unit -> unit;
  sys_exit : int -> unit;
  sys_log : string -> unit;
  sys_spawn_enclave :
    image:Image.t -> at_offset:int -> (Libtyche.Handle.t, string) result;
  (** Carve an enclave out of the process's own arena at
      [mem.base + at_offset]: the transparent sub-compartment. *)
  sys_call_enclave :
    Libtyche.Handle.t -> (Tyche.Backend_intf.transition_path, string) result;
  sys_return : unit -> (Tyche.Backend_intf.transition_path, string) result;
}

type program = ctx -> [ `Yield | `Done of int ]
(** One scheduling quantum; return [`Yield] to run again later. *)

type t

val make :
  pid:pid ->
  name:string ->
  mem:Hw.Addr.Range.t ->
  core:int ->
  page_table:Hw.Page_table.t ->
  program:program ->
  t

val core : t -> int
(** The CPU the kernel schedules this process on. *)

val page_table : t -> Hw.Page_table.t
(** The process's own address space: vaddr 0 maps to the arena base. *)

val pid : t -> pid
val name : t -> string
val mem : t -> Hw.Addr.Range.t
val state : t -> state
val set_state : t -> state -> unit
val program : t -> program
