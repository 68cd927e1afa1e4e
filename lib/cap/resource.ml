type t =
  | Memory of Hw.Addr.Range.t
  | Cpu_core of int
  | Device of int

let equal a b =
  match a, b with
  | Memory r1, Memory r2 -> Hw.Addr.Range.equal r1 r2
  | Cpu_core c1, Cpu_core c2 -> c1 = c2
  | Device d1, Device d2 -> d1 = d2
  | (Memory _ | Cpu_core _ | Device _), _ -> false

let rank = function Memory _ -> 0 | Cpu_core _ -> 1 | Device _ -> 2

let compare a b =
  match a, b with
  | Memory r1, Memory r2 -> Hw.Addr.Range.compare r1 r2
  | Cpu_core c1, Cpu_core c2 -> Int.compare c1 c2
  | Device d1, Device d2 -> Int.compare d1 d2
  | _ -> Int.compare (rank a) (rank b)

let pp fmt = function
  | Memory r -> Format.fprintf fmt "mem%a" Hw.Addr.Range.pp r
  | Cpu_core c -> Format.fprintf fmt "core#%d" c
  | Device d -> Format.fprintf fmt "dev#%04x" d

let overlaps a b =
  match a, b with
  | Memory r1, Memory r2 -> Hw.Addr.Range.overlaps r1 r2
  | Cpu_core c1, Cpu_core c2 -> c1 = c2
  | Device d1, Device d2 -> d1 = d2
  | (Memory _ | Cpu_core _ | Device _), _ -> false

let memory_range = function Memory r -> Some r | Cpu_core _ | Device _ -> None
let is_memory = function Memory _ -> true | Cpu_core _ | Device _ -> false
