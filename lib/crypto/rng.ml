(* SplitMix64: tiny, statistically solid for simulation purposes, and
   trivially reproducible across runs. Not a CSPRNG — the security of the
   signature scheme in this repo rests on SHA-256 preimage resistance over
   secrets derived from seeds the tests control. *)

(* Domain-safe: the state is an atomic, and [next_int64] claims its
   position in the sequence with a CAS loop — concurrent callers each
   get a distinct element of the same SplitMix64 stream, and the
   single-threaded sequence is bit-identical to the old mutable-field
   implementation (reproducibility is load-bearing: chaos seeds and
   recorded workloads replay through this). *)
type t = { state : int64 Atomic.t }

let create ~seed = { state = Atomic.make seed }

let next_int64 t =
  let rec claim () =
    let cur = Atomic.get t.state in
    let next = Int64.add cur 0x9E3779B97F4A7C15L in
    if Atomic.compare_and_set t.state cur next then next else claim ()
  in
  let z = claim () in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Drop two bits so the value always fits OCaml's 63-bit int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let bytes t n =
  String.init n (fun _ -> Char.chr (Int64.to_int (Int64.logand (next_int64 t) 0xFFL)))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let split t = create ~seed:(next_int64 t)
