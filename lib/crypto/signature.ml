type signer = {
  seeds : Ots.secret_key array;
  tree : Merkle.t;
  links : Ots.links;
      (* The one expansion buffer: [sign] regenerates each key into it,
         so the signer holds a seed per key, not every chain link. *)
  mutable next : int;
  pool : Keypool.t option;
      (* When present, [create] drew the keys from it and [sign] eagerly
         replenishes it, keeping signer rotation off the latency path. *)
}

type signature = {
  index : int;
  ots_pk : Ots.public_key;
  ots_sig : Ots.signature;
  proof : Merkle.proof;
}

let create ?(height = 6) ?pool rng =
  if height < 0 || height > 16 then invalid_arg "Signature.create: height out of range";
  let n = 1 lsl height in
  let take p = Array.init n (fun _ -> Keypool.take p) in
  let keys = match pool with Some p -> take p | None -> Keypool.generate_batch rng n in
  { seeds = Array.map fst keys;
    tree = Merkle.build (Array.to_list (Array.map snd keys));
    links = Ots.links ();
    next = 0;
    pool }

let public_root t = Merkle.root t.tree
let remaining t = Array.length t.seeds - t.next

let claim t =
  if t.next >= Array.length t.seeds then failwith "Signature.sign: signer exhausted";
  let index = t.next in
  t.next <- index + 1;
  index

let sign t msg =
  let index = claim t in
  let ots_pk = Ots.expand t.links t.seeds.(index) in
  let sg =
    { index;
      ots_pk;
      ots_sig = Ots.sign t.links (Sha256.string msg);
      proof = Merkle.prove t.tree index }
  in
  (match t.pool with Some p -> Keypool.replenish p | None -> ());
  sg

let sign_spec t msg =
  let index = claim t in
  let seed = t.seeds.(index) in
  { index;
    ots_pk = Ots.expand t.links seed;
    ots_sig = Ots.sign_spec seed (Sha256.Spec.string msg);
    proof = Merkle.prove t.tree index }

let verify ~root msg sg =
  (* [index] duplicates the proof's leaf index on the wire; verification
     must tie them together or the field becomes unauthenticated. *)
  sg.index = sg.proof.Merkle.leaf_index
  && Ots.verify sg.ots_pk (Sha256.string msg) sg.ots_sig
  && Merkle.verify ~root ~leaf:(Ots.public_key_digest sg.ots_pk) sg.proof

(* Wire format: index | proof length | proof digests | pk | sig, all
   fixed-width fields, big-endian lengths. *)
let signature_to_string sg =
  let buf = Buffer.create 4500 in
  Buffer.add_int32_be buf (Int32.of_int sg.index);
  Buffer.add_int32_be buf (Int32.of_int sg.proof.Merkle.leaf_index);
  Buffer.add_int32_be buf (Int32.of_int (List.length sg.proof.Merkle.path));
  List.iter (fun d -> Buffer.add_string buf (Sha256.to_raw d)) sg.proof.Merkle.path;
  Buffer.add_string buf (Ots.public_key_to_string sg.ots_pk);
  Buffer.add_string buf (Ots.signature_to_string sg.ots_sig);
  Buffer.contents buf

let signature_of_string s =
  let fail () = invalid_arg "Signature.signature_of_string: malformed" in
  if String.length s < 12 then fail ();
  let read_i32 off = Int32.to_int (String.get_int32_be s off) in
  let index = read_i32 0 in
  let leaf_index = read_i32 4 in
  let path_len = read_i32 8 in
  if path_len < 0 || path_len > 64 then fail ();
  let key_bytes = 67 * 32 in
  let expected = 12 + (path_len * 32) + (2 * key_bytes) in
  if String.length s <> expected then fail ();
  let path =
    List.init path_len (fun i -> Sha256.of_raw (String.sub s (12 + (i * 32)) 32))
  in
  let pk_off = 12 + (path_len * 32) in
  { index;
    ots_pk = Ots.public_key_of_string (String.sub s pk_off key_bytes);
    ots_sig = Ots.signature_of_string (String.sub s (pk_off + key_bytes) key_bytes);
    proof = { Merkle.leaf_index; path } }
