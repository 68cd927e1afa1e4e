type visibility = Confidential | Shared

type segment = {
  seg_name : string;
  vaddr : int;
  data : string;
  perm : Hw.Perm.t;
  ring : int;
  visibility : visibility;
  measured : bool;
}

type t = { image_name : string; segments : segment list; entry : int }

let seg_len s = Hw.Addr.align_up (max 1 (String.length s.data))

let segment_range s ~at = Hw.Addr.Range.make ~base:(at + s.vaddr) ~len:(seg_len s)

let size t =
  List.fold_left (fun acc s -> max acc (s.vaddr + seg_len s)) 0 t.segments

let validate t =
  let rec check = function
    | [] -> Ok ()
    | s :: rest ->
      if s.seg_name = "" then Error "segment with empty name"
      else if not (Hw.Addr.is_page_aligned s.vaddr) then
        Error (Printf.sprintf "segment %s: vaddr not page-aligned" s.seg_name)
      else if s.ring <> 0 && s.ring <> 3 then
        Error (Printf.sprintf "segment %s: ring must be 0 or 3" s.seg_name)
      else begin
        match rest with
        | next :: _ when next.vaddr < s.vaddr + seg_len s ->
          Error
            (Printf.sprintf "segments %s and %s overlap or are unsorted" s.seg_name
               next.seg_name)
        | _ -> check rest
      end
  in
  match check t.segments with
  | Error _ as e -> e
  | Ok () ->
    if t.segments = [] then Error "image has no segments"
    else begin
      let entry_in_exec =
        List.exists
          (fun s ->
            s.perm.Hw.Perm.exec && t.entry >= s.vaddr && t.entry < s.vaddr + seg_len s)
          t.segments
      in
      if entry_in_exec then Ok ()
      else Error "entry point is not inside an executable segment"
    end

let find_segment t name = List.find_opt (fun s -> s.seg_name = name) t.segments

(* Serialization: "TELF" | version | name | entry | nsegs | segments.
   Strings are length-prefixed (u32 BE); integers are u64 BE. *)

let magic = "TELF"
let version = 1

let to_bytes t =
  let buf = Buffer.create 1024 in
  let add_string s =
    Buffer.add_int32_be buf (Int32.of_int (String.length s));
    Buffer.add_string buf s
  in
  Buffer.add_string buf magic;
  Buffer.add_int32_be buf (Int32.of_int version);
  add_string t.image_name;
  Buffer.add_int64_be buf (Int64.of_int t.entry);
  Buffer.add_int32_be buf (Int32.of_int (List.length t.segments));
  List.iter
    (fun s ->
      add_string s.seg_name;
      Buffer.add_int64_be buf (Int64.of_int s.vaddr);
      add_string s.data;
      Buffer.add_string buf (Hw.Perm.to_string s.perm);
      Buffer.add_char buf (Char.chr s.ring);
      Buffer.add_char buf (match s.visibility with Confidential -> '\x00' | Shared -> '\x01');
      Buffer.add_char buf (if s.measured then '\x01' else '\x00'))
    t.segments;
  Buffer.contents buf

let of_bytes raw =
  let pos = ref 0 in
  let fail msg = Error ("Image.of_bytes: " ^ msg) in
  let need n = !pos + n <= String.length raw in
  let exception Parse of string in
  let take n =
    if not (need n) then raise (Parse "truncated");
    let s = String.sub raw !pos n in
    pos := !pos + n;
    s
  in
  let u32 () = Int32.to_int (String.get_int32_be (take 4) 0) in
  let u64 () = Int64.to_int (String.get_int64_be (take 8) 0) in
  let str () =
    let n = u32 () in
    if n < 0 || n > String.length raw then raise (Parse "bad string length");
    take n
  in
  let perm_of_string p =
    if String.length p <> 3 then raise (Parse "bad permission field");
    { Hw.Perm.read = p.[0] = 'r'; write = p.[1] = 'w'; exec = p.[2] = 'x' }
  in
  match
    if take 4 <> magic then raise (Parse "bad magic");
    if u32 () <> version then raise (Parse "unsupported version");
    let image_name = str () in
    let entry = u64 () in
    let nsegs = u32 () in
    if nsegs < 0 || nsegs > 4096 then raise (Parse "unreasonable segment count");
    let segments =
      List.init nsegs (fun _ ->
          let seg_name = str () in
          let vaddr = u64 () in
          let data = str () in
          let perm = perm_of_string (take 3) in
          let ring = Char.code (take 1).[0] in
          let visibility =
            match (take 1).[0] with
            | '\x00' -> Confidential
            | '\x01' -> Shared
            | _ -> raise (Parse "bad visibility")
          in
          let measured = (take 1).[0] = '\x01' in
          { seg_name; vaddr; data; perm; ring; visibility; measured })
    in
    { image_name; segments; entry }
  with
  | img -> ( match validate img with Ok () -> Ok img | Error e -> fail e)
  | exception Parse msg -> fail msg

module Builder = struct
  type nonrec t = { name : string; segs : segment list; b_entry : int }

  let create ~name = { name; segs = []; b_entry = 0 }

  let add_segment t ~name ~vaddr ~data ~perm ?(ring = 3) ?(visibility = Confidential)
      ?measured () =
    let measured = Option.value measured ~default:perm.Hw.Perm.exec in
    let seg = { seg_name = name; vaddr; data; perm; ring; visibility; measured } in
    { t with segs = seg :: t.segs }

  let set_entry t e = { t with b_entry = e }

  let finish t =
    let image =
      { image_name = t.name;
        segments = List.sort (fun a b -> Int.compare a.vaddr b.vaddr) t.segs;
        entry = t.b_entry }
    in
    match validate image with Ok () -> Ok image | Error _ as e -> e
end
