exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some (Printf.sprintf "Persist.Wire.Corrupt(%s)" msg)
    | _ -> None)

let corrupt msg = raise (Corrupt msg)

(* --- encoding ------------------------------------------------------- *)

let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let u32 b v = Buffer.add_int32_le b (Int32.of_int v)

(* LEB128 over the int's 63-bit pattern: [lsr] makes a negative value
   nine bytes long instead of looping. *)
let rec uint b v =
  if v land lnot 0x7f = 0 then u8 b v
  else begin
    u8 b (v lor 0x80);
    uint b (v lsr 7)
  end

(* Zigzag: 0, -1, 1, -2, ... map to 0, 1, 2, 3, ..., so small values of
   either sign are short. Bit 62 is the sign of a 63-bit int. *)
let int b v = uint b ((v lsl 1) lxor (v asr 62))
let bool_ b v = u8 b (if v then 1 else 0)

let str b s =
  uint b (String.length s);
  Buffer.add_string b s

let list b f xs =
  uint b (List.length xs);
  List.iter (f b) xs

(* --- decoding ------------------------------------------------------- *)

type reader = { buf : string; mutable rpos : int }

let reader ?(pos = 0) s = { buf = s; rpos = pos }
let pos r = r.rpos
let at_end r = r.rpos >= String.length r.buf

let need r n what =
  if n < 0 || r.rpos > String.length r.buf - n then
    corrupt (Printf.sprintf "truncated %s at offset %d" what r.rpos)

let get_u8 r =
  need r 1 "u8";
  let v = Char.code r.buf.[r.rpos] in
  r.rpos <- r.rpos + 1;
  v

let get_u32 r =
  need r 4 "u32";
  let v = Int32.to_int (Bytes.get_int32_le (Bytes.unsafe_of_string r.buf) r.rpos) in
  r.rpos <- r.rpos + 4;
  v land 0xFFFFFFFF

(* Nine groups of seven bits carry all 63, so the ninth byte must end
   the number; a last byte of zero (other than a lone one) is a longer
   spelling of a shorter number. *)
let get_uint r =
  let rec go acc shift =
    if at_end r then corrupt (Printf.sprintf "truncated varint at offset %d" r.rpos);
    let c = get_u8 r in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then
      if c = 0 && shift > 0 then corrupt "overlong varint" else acc
    else if shift = 56 then corrupt "varint over 63 bits"
    else go acc (shift + 7)
  in
  go 0 0

let get_int r =
  let u = get_uint r in
  (u lsr 1) lxor (-(u land 1))

let get_bool r =
  match get_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt (Printf.sprintf "bad bool byte %d" n)

let get_str r =
  let len = get_uint r in
  need r len "string body";
  let s = String.sub r.buf r.rpos len in
  r.rpos <- r.rpos + len;
  s

let get_list r f =
  let n = get_uint r in
  (* Each element consumes at least one byte, so a count beyond the
     remaining input is corrupt — refuse before allocating. *)
  if n < 0 || n > String.length r.buf - r.rpos then corrupt "list count exceeds input";
  List.init n (fun _ -> f r)

let expect_end r =
  if not (at_end r) then
    corrupt (Printf.sprintf "%d trailing bytes" (String.length r.buf - r.rpos))
