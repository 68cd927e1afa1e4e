(* One [Bytes.t] per 4 KiB frame. A frame nobody has written aliases
   [zero_page], which is never written: writes go through [writable],
   which gives the frame its own copy first. *)
type t = { frames : Bytes.t array; mutable taint : Taint.t option }

exception Bus_error of Addr.t

let page_shift = 12
let page_mask = Addr.page_size - 1
let () = assert (Addr.page_size = 1 lsl page_shift)
let zero_page = Bytes.make Addr.page_size '\x00'

let create ~size =
  if size <= 0 || not (Addr.is_page_aligned size) then
    invalid_arg "Physmem.create: size must be positive and page-aligned";
  { frames = Array.make (size lsr page_shift) zero_page; taint = None }

let set_taint t taint = t.taint <- Some taint

let observe_taint t ~reader addr =
  match t.taint with None -> () | Some tt -> Taint.observe_page tt ~reader addr

let size t = Array.length t.frames lsl page_shift
let full_range t = Addr.Range.make ~base:0 ~len:(size t)

let check t addr len =
  if addr < 0 || len < 0 || addr + len > size t then raise (Bus_error addr)

let writable t f =
  let p = t.frames.(f) in
  if p != zero_page then p
  else begin
    let p = Bytes.make Addr.page_size '\x00' in
    t.frames.(f) <- p;
    p
  end

(* [f frame off pos n] for each frame slice of [addr, addr + len):
   [n] bytes at offset [off] of frame [frame], [pos] bytes in. *)
let slices addr len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land page_mask in
    let n = min (len - !pos) (Addr.page_size - off) in
    f (a lsr page_shift) off !pos n;
    pos := !pos + n
  done

let read_byte t a =
  check t a 1;
  Char.code (Bytes.get t.frames.(a lsr page_shift) (a land page_mask))

let write_byte t a v =
  check t a 1;
  Bytes.set (writable t (a lsr page_shift)) (a land page_mask) (Char.chr (v land 0xFF))

let read t r =
  let base = Addr.Range.base r and len = Addr.Range.len r in
  check t base len;
  let out = Bytes.create len in
  slices base len (fun f off pos n -> Bytes.blit t.frames.(f) off out pos n);
  Bytes.unsafe_to_string out

let write t a s =
  check t a (String.length s);
  slices a (String.length s) (fun f off pos n -> Bytes.blit_string s pos (writable t f) off n)

let zero_range t r =
  let base = Addr.Range.base r and len = Addr.Range.len r in
  check t base len;
  slices base len (fun f off _ n ->
      if n = Addr.page_size then t.frames.(f) <- zero_page
      else if t.frames.(f) != zero_page then Bytes.fill t.frames.(f) off n '\x00');
  (* Zeroing is the clean-up the [Zero*] policies promise: the prior
     owner's residue is gone, so its taint goes with it. *)
  match t.taint with None -> () | Some tt -> Taint.clear_pages tt r

let measure t r =
  let base = Addr.Range.base r and len = Addr.Range.len r in
  check t base len;
  let ctx = Crypto.Sha256.Ctx.create () in
  slices base len (fun f off _ n -> Crypto.Sha256.Ctx.feed_bytes ctx t.frames.(f) ~off ~len:n);
  Crypto.Sha256.Ctx.finalize ctx

let blit t ~src ~dst =
  let len = Addr.Range.len src and src_base = Addr.Range.base src in
  check t src_base len;
  check t dst len;
  let dst_range = Addr.Range.make ~base:dst ~len in
  if Addr.Range.overlaps src dst_range then invalid_arg "Physmem.blit: overlapping ranges";
  slices dst len (fun f off pos n ->
      let into = writable t f in
      slices (src_base + pos) n (fun sf soff spos sn ->
          Bytes.blit t.frames.(sf) soff into (off + spos) sn))
