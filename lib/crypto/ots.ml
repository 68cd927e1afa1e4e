(* WOTS with w = 16: a 256-bit digest is cut into 64 4-bit chunks, plus a
   3-chunk checksum, giving 67 hash chains of length 15. A secret key is
   a 32-byte seed; chain j starts at SHA-256(seed || j), j one byte, and
   the public key is each chain's start hashed 15 times. A signature
   walks each chain to the chunk value; verification completes the walk
   and compares.

   Chains run on flat buffers via [Sha256.hash32_sub]: one compression
   and no allocation per step. [expand] writes every link of a key into
   a caller-owned buffer (~1,070 compressions) and [sign] copies out the
   link each chunk selects. Keeping only the seed until then is the
   XMSS trade (RFC 8391): 32 bytes per key at rest, one expansion per
   signature. *)

let chain_count = 67 (* 64 message chunks + 3 checksum chunks *)
let chain_length = 15

type secret_key = string (* the 32-byte seed *)

(* All links of all chains of one expanded key: chain [i]'s link [c]
   (the secret hashed [c] times) lives at offset [(i * 16 + c) * 32].
   67 * 16 * 32 = ~34 KiB — the classic Winternitz time/memory trade. *)
type links = Bytes.t

type public_key = string array
type signature = string array

let stride = (chain_length + 1) * 32

let index_bytes = Array.init chain_count (fun j -> String.make 1 (Char.chr j))
let secret seed j = Sha256.to_raw (Sha256.digest_strings [ seed; index_bytes.(j) ])

let hash_times s n =
  if n = 0 then s
  else if String.length s <> 32 then begin
    (* Non-32-byte inputs only occur on malformed data (chain values are
       always digests); fall back to the general path. *)
    let rec go s n = if n = 0 then s else go (Sha256.to_raw (Sha256.string s)) (n - 1) in
    go s n
  end
  else begin
    let buf = Bytes.of_string s and chain = Sha256.chain_scratch () in
    for _ = 1 to n do
      Sha256.hash32_sub chain ~src:buf ~src_off:0 ~dst:buf ~dst_off:0
    done;
    Bytes.unsafe_to_string buf
  end

let links () = Bytes.create (chain_count * stride)

let expand links seed =
  let chain = Sha256.chain_scratch () in
  Array.init chain_count (fun i ->
      let base = i * stride in
      Bytes.blit_string (secret seed i) 0 links base 32;
      for c = 1 to chain_length do
        Sha256.hash32_sub chain ~src:links ~src_off:(base + ((c - 1) * 32)) ~dst:links
          ~dst_off:(base + (c * 32))
      done;
      Bytes.sub_string links (base + (chain_length * 32)) 32)

let draw rng = Rng.bytes rng 32
let public_key seed = Array.init chain_count (fun i -> hash_times (secret seed i) chain_length)

(* 4-bit chunks of the digest, most-significant nibble first, then a
   base-16 checksum of (15 - chunk) values to prevent chain extension. *)
let chunks_of_digest digest =
  let raw = Sha256.to_raw digest in
  let msg = Array.init 64 (fun i ->
      let byte = Char.code raw.[i / 2] in
      if i land 1 = 0 then byte lsr 4 else byte land 0xF)
  in
  let checksum = Array.fold_left (fun acc c -> acc + (chain_length - c)) 0 msg in
  let cs = Array.init 3 (fun i -> (checksum lsr (4 * (2 - i))) land 0xF) in
  Array.append msg cs

let sign links digest =
  let chunks = chunks_of_digest digest in
  Array.mapi (fun i c -> Bytes.sub_string links ((i * stride) + (c * 32)) 32) chunks

(* Total on malformed input: a signature with the wrong number of chains
   or chain values that are not 32 bytes is simply invalid, never an
   exception — verifiers feed this attacker-controlled data. *)
let verify pk digest sg =
  Array.length sg = chain_count
  && Array.for_all (fun v -> String.length v = 32) sg
  && begin
    let chunks = chunks_of_digest digest in
    let ok = ref true in
    for i = 0 to chain_count - 1 do
      let completed = hash_times sg.(i) (chain_length - chunks.(i)) in
      if not (String.equal completed pk.(i)) then ok := false
    done;
    !ok
  end

let public_key_digest pk = Sha256.digest_strings (Array.to_list pk)

let join parts = String.concat "" (Array.to_list parts)

let split s =
  if String.length s <> chain_count * 32 then
    invalid_arg "Ots: serialized key/signature must be 67*32 bytes";
  Array.init chain_count (fun i -> String.sub s (i * 32) 32)

let public_key_to_string = join
let public_key_of_string = split
let signature_to_string = join
let signature_of_string = split

(* Specification twin built on [Sha256.Spec]: byte-identical output to
   [expand] then [sign] for the same key and digest (the scheme is
   deterministic), used by tests as a cross-check of the derivation and
   the chains, and by the E14 bench as the baseline. *)
let hash_times_spec s n =
  let rec go s n =
    if n = 0 then s else go (Sha256.to_raw (Sha256.Spec.string s)) (n - 1)
  in
  go s n

let sign_spec seed digest =
  let secret_spec i = Sha256.to_raw (Sha256.Spec.string (seed ^ index_bytes.(i))) in
  Array.mapi (fun i c -> hash_times_spec (secret_spec i) c) (chunks_of_digest digest)
