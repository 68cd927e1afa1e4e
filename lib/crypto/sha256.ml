(* SHA-256, FIPS 180-4.

   The 64-byte block compression has two kernels. Where a CPUID probe
   finds the x86 SHA extensions when this module initialises, [compress]
   runs the C one in sha256_stubs.c. Elsewhere the OCaml one runs, on
   unboxed [Int32] words: without flambda the native compiler unboxes
   int32 locals and mutable variables into plain 32-bit registers (where
   rotates need no masking, unlike tagged 63-bit ints), so its win over
   [Spec] comes from removing everything else — the state, schedule and
   round constants live in preallocated [Bytes] scratch buffers accessed
   with the unsafe 32-bit load/store primitives (no bounds checks, no
   boxed int32 array elements, no per-block allocation). Both keep the
   same packed state under the same padding and context code, so every
   digest is the same bytes on either. Blocks are compressed straight
   out of the source buffer, and the one-shot entry points allocate
   nothing but the final digest. [Spec] below is the original Int32
   transliteration of the standard, kept as the executable
   specification: tests cross-check the fast paths against it on random
   inputs, and the E14 bench uses it as the honest baseline. *)

type digest = string (* exactly 32 bytes *)

let digest_size = 32

external unsafe_get_32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set_32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get_be b i =
  let v = unsafe_get_32 b i in
  if Sys.big_endian then v else swap32 v

(* Round constants, packed native-endian so the round loop reads them
   with an unboxed load instead of indirecting through an int32 array. *)
let k_bytes =
  let k =
    [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
       0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
       0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
       0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
       0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
       0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
       0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
       0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
       0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
       0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
       0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
       0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
       0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]
  in
  let b = Bytes.create 256 in
  Array.iteri (fun i v -> Bytes.set_int32_ne b (i * 4) v) k;
  b

let[@inline] rotr x n =
  Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

(* State is 8 int32 words packed native-endian in a 32-byte buffer. *)
let init_state st =
  unsafe_set_32 st 0 0x6a09e667l; unsafe_set_32 st 4 0xbb67ae85l;
  unsafe_set_32 st 8 0x3c6ef372l; unsafe_set_32 st 12 0xa54ff53al;
  unsafe_set_32 st 16 0x510e527fl; unsafe_set_32 st 20 0x9b05688cl;
  unsafe_set_32 st 24 0x1f83d9abl; unsafe_set_32 st 28 0x5be0cd19l

(* Compress one 64-byte block at [off] in [block] into state [st],
   using the 256-byte [w] as the message schedule. *)
let compress_ocaml st w block off =
  for i = 0 to 15 do
    unsafe_set_32 w (i * 4) (get_be block (off + (i * 4)))
  done;
  for i = 16 to 63 do
    let x = unsafe_get_32 w ((i - 15) * 4) and y = unsafe_get_32 w ((i - 2) * 4) in
    let s0 =
      Int32.logxor (Int32.logxor (rotr x 7) (rotr x 18)) (Int32.shift_right_logical x 3)
    in
    let s1 =
      Int32.logxor (Int32.logxor (rotr y 17) (rotr y 19)) (Int32.shift_right_logical y 10)
    in
    unsafe_set_32 w (i * 4)
      (Int32.add
         (Int32.add (unsafe_get_32 w ((i - 16) * 4)) s0)
         (Int32.add (unsafe_get_32 w ((i - 7) * 4)) s1))
  done;
  let a = ref (unsafe_get_32 st 0) and b = ref (unsafe_get_32 st 4)
  and c = ref (unsafe_get_32 st 8) and d = ref (unsafe_get_32 st 12)
  and e = ref (unsafe_get_32 st 16) and f = ref (unsafe_get_32 st 20)
  and g = ref (unsafe_get_32 st 24) and hh = ref (unsafe_get_32 st 28) in
  for i = 0 to 63 do
    let e' = !e in
    let s1 = Int32.logxor (Int32.logxor (rotr e' 6) (rotr e' 11)) (rotr e' 25) in
    let ch = Int32.logxor (Int32.logand e' !f) (Int32.logand (Int32.lognot e') !g) in
    let t1 =
      Int32.add
        (Int32.add !hh s1)
        (Int32.add ch
           (Int32.add (unsafe_get_32 k_bytes (i * 4)) (unsafe_get_32 w (i * 4))))
    in
    let a' = !a in
    let s0 = Int32.logxor (Int32.logxor (rotr a' 2) (rotr a' 13)) (rotr a' 22) in
    let maj =
      Int32.logxor
        (Int32.logxor (Int32.logand a' !b) (Int32.logand a' !c))
        (Int32.logand !b !c)
    in
    let t2 = Int32.add s0 maj in
    hh := !g; g := !f; f := e';
    e := Int32.add !d t1;
    d := !c; c := !b; b := a';
    a := Int32.add t1 t2
  done;
  unsafe_set_32 st 0 (Int32.add (unsafe_get_32 st 0) !a);
  unsafe_set_32 st 4 (Int32.add (unsafe_get_32 st 4) !b);
  unsafe_set_32 st 8 (Int32.add (unsafe_get_32 st 8) !c);
  unsafe_set_32 st 12 (Int32.add (unsafe_get_32 st 12) !d);
  unsafe_set_32 st 16 (Int32.add (unsafe_get_32 st 16) !e);
  unsafe_set_32 st 20 (Int32.add (unsafe_get_32 st 20) !f);
  unsafe_set_32 st 24 (Int32.add (unsafe_get_32 st 24) !g);
  unsafe_set_32 st 28 (Int32.add (unsafe_get_32 st 28) !hh)

external hw_available : unit -> bool = "caml_sha256_hw_available" [@@noalloc]

(* Unchecked: callers hold a 32-byte state and 64 bytes at [off]. *)
external compress_hw : Bytes.t -> Bytes.t -> int -> unit = "caml_sha256_compress" [@@noalloc]

let hardware = hw_available ()

let compress st w block off =
  if hardware then compress_hw st block off else compress_ocaml st w block off

let state_to_digest st =
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (i * 4) (unsafe_get_32 st (i * 4))
  done;
  Bytes.unsafe_to_string out

module Ctx = struct
  type t = {
    h : Bytes.t;               (* 32-byte packed working state *)
    block : Bytes.t;           (* 64-byte block buffer *)
    mutable block_len : int;   (* bytes currently buffered *)
    mutable total_len : int;   (* total message length in bytes *)
    w : Bytes.t;               (* 256-byte message schedule, reused *)
  }

  let create () =
    let t =
      { h = Bytes.create 32;
        block = Bytes.create 64;
        block_len = 0;
        total_len = 0;
        w = Bytes.create 256 }
    in
    init_state t.h;
    t

  let reset t =
    init_state t.h;
    t.block_len <- 0;
    t.total_len <- 0

  let feed_bytes t src ~off ~len =
    if off < 0 || len < 0 || off + len > Bytes.length src then
      invalid_arg "Sha256.Ctx.feed_bytes";
    t.total_len <- t.total_len + len;
    let pos = ref off and remaining = ref len in
    (* Top up a partially filled block first. *)
    if t.block_len > 0 then begin
      let take = min !remaining (64 - t.block_len) in
      Bytes.blit src !pos t.block t.block_len take;
      t.block_len <- t.block_len + take;
      pos := !pos + take;
      remaining := !remaining - take;
      if t.block_len = 64 then begin
        compress t.h t.w t.block 0;
        t.block_len <- 0
      end
    end;
    (* Whole blocks straight from the source, no copy. *)
    while !remaining >= 64 do
      compress t.h t.w src !pos;
      pos := !pos + 64;
      remaining := !remaining - 64
    done;
    if !remaining > 0 then begin
      Bytes.blit src !pos t.block 0 !remaining;
      t.block_len <- !remaining
    end

  let feed_string t s =
    feed_bytes t (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

  let finalize t =
    let bit_len = t.total_len * 8 in
    (* Append 0x80, pad with zeros to 56 mod 64, then the 64-bit length. *)
    Bytes.set t.block t.block_len '\x80';
    t.block_len <- t.block_len + 1;
    if t.block_len > 56 then begin
      Bytes.fill t.block t.block_len (64 - t.block_len) '\x00';
      compress t.h t.w t.block 0;
      t.block_len <- 0
    end;
    Bytes.fill t.block t.block_len (56 - t.block_len) '\x00';
    Bytes.set_int64_be t.block 56 (Int64.of_int bit_len);
    compress t.h t.w t.block 0;
    t.block_len <- 64;
    state_to_digest t.h
end

(* One-shot entry points reuse a scratch context, which saves a context
   allocation per call (these are the hottest calls in the attestation
   path). There is one per OCaml domain: a keypool replenisher and the
   attests of several monitor shards hash concurrently, and a shared
   context would interleave their blocks. Within a domain no hash nests
   inside another, so reuse is safe. *)
let scratch_key = Domain.DLS.new_key Ctx.create

let string s =
  let scratch = Domain.DLS.get scratch_key in
  Ctx.reset scratch;
  Ctx.feed_string scratch s;
  Ctx.finalize scratch

let digest_strings ss =
  let scratch = Domain.DLS.get scratch_key in
  Ctx.reset scratch;
  List.iter (Ctx.feed_string scratch) ss;
  Ctx.finalize scratch

let concat ds = digest_strings ds

(* Hash-chain kernel: digest exactly 32 bytes in one compression. The
   padded block is constant except for the message, so it is prepared
   once per OCaml domain: msg(32) | 0x80 | zeros | bit length 256 =
   0x100 at offset 62. *)
type chain_scratch = { block : Bytes.t; h : Bytes.t; w : Bytes.t }

let chain_key =
  Domain.DLS.new_key (fun () ->
      let block = Bytes.make 64 '\x00' in
      Bytes.set block 32 '\x80';
      Bytes.set block 62 '\x01';
      { block; h = Bytes.create 32; w = Bytes.create 256 })

let chain_scratch () = Domain.DLS.get chain_key

let hash32_sub c ~src ~src_off ~dst ~dst_off =
  if
    src_off < 0 || dst_off < 0
    || Bytes.length src < src_off + 32
    || Bytes.length dst < dst_off + 32
  then invalid_arg "Sha256.hash32_sub: need two 32-byte slices";
  Bytes.blit src src_off c.block 0 32;
  init_state c.h;
  compress c.h c.w c.block 0;
  for i = 0 to 7 do
    Bytes.set_int32_be dst (dst_off + (i * 4)) (unsafe_get_32 c.h (i * 4))
  done

let to_raw d = d

let of_raw s =
  if String.length s <> 32 then invalid_arg "Sha256.of_raw: need 32 bytes";
  s

let to_hex d =
  let buf = Buffer.create 64 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf

let equal = String.equal
let compare = String.compare
let pp fmt d = Format.pp_print_string fmt (to_hex d)
let zero = String.make 32 '\x00'

module Kernel = struct
  type t = Hardware | Ocaml

  let live = if hardware then Hardware else Ocaml

  let compress k ~state ~block ~off =
    if Bytes.length state <> 32 || off < 0 || Bytes.length block < off + 64 then
      invalid_arg "Sha256.Kernel.compress: need a 32-byte state and a 64-byte block";
    if k = Ocaml then compress_ocaml state (chain_scratch ()).w block off
    else if hardware then compress_hw state block off
    else invalid_arg "Sha256.Kernel.compress: no SHA extensions"
end

(* The original Int32 implementation, following the specification text
   closely so it can be audited against FIPS 180-4. Allocation-heavy
   (every Int32 operation boxes); kept verbatim as the cross-check twin
   and the E14 performance baseline. *)
module Spec = struct
  let k32 =
    [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
       0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
       0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
       0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
       0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
       0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
       0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
       0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
       0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
       0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
       0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
       0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
       0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

  let rotr x n =
    Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

  let compress h block off =
    let w = Array.make 64 0l in
    for i = 0 to 15 do
      w.(i) <- Bytes.get_int32_be block (off + (i * 4))
    done;
    for i = 16 to 63 do
      let s0 =
        Int32.logxor
          (Int32.logxor (rotr w.(i - 15) 7) (rotr w.(i - 15) 18))
          (Int32.shift_right_logical w.(i - 15) 3)
      and s1 =
        Int32.logxor
          (Int32.logxor (rotr w.(i - 2) 17) (rotr w.(i - 2) 19))
          (Int32.shift_right_logical w.(i - 2) 10)
      in
      w.(i) <- Int32.add (Int32.add w.(i - 16) s0) (Int32.add w.(i - 7) s1)
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2)
    and d = ref h.(3) and e = ref h.(4) and f = ref h.(5)
    and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let s1 = Int32.logxor (Int32.logxor (rotr !e 6) (rotr !e 11)) (rotr !e 25) in
      let ch = Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g) in
      let t1 = Int32.add (Int32.add (Int32.add !hh s1) (Int32.add ch k32.(i))) w.(i) in
      let s0 = Int32.logxor (Int32.logxor (rotr !a 2) (rotr !a 13)) (rotr !a 22) in
      let maj =
        Int32.logxor
          (Int32.logxor (Int32.logand !a !b) (Int32.logand !a !c))
          (Int32.logand !b !c)
      in
      let t2 = Int32.add s0 maj in
      hh := !g; g := !f; f := !e;
      e := Int32.add !d t1;
      d := !c; c := !b; b := !a;
      a := Int32.add t1 t2
    done;
    h.(0) <- Int32.add h.(0) !a; h.(1) <- Int32.add h.(1) !b;
    h.(2) <- Int32.add h.(2) !c; h.(3) <- Int32.add h.(3) !d;
    h.(4) <- Int32.add h.(4) !e; h.(5) <- Int32.add h.(5) !f;
    h.(6) <- Int32.add h.(6) !g; h.(7) <- Int32.add h.(7) !hh

  let string s =
    let h =
      [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al;
         0x510e527fl; 0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l |]
    in
    let len = String.length s in
    (* Pad the whole message in memory: simple and auditable. *)
    let padded_len = ((len + 8) / 64 * 64) + 64 in
    let block = Bytes.make padded_len '\x00' in
    Bytes.blit_string s 0 block 0 len;
    Bytes.set block len '\x80';
    Bytes.set_int64_be block (padded_len - 8) (Int64.of_int (len * 8));
    for b = 0 to (padded_len / 64) - 1 do
      compress h block (b * 64)
    done;
    let out = Bytes.create 32 in
    for i = 0 to 7 do
      Bytes.set_int32_be out (i * 4) h.(i)
    done;
    Bytes.unsafe_to_string out
end
