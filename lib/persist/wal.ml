type read_result = {
  records : (int * string) list;
  valid_bytes : int;
  truncated : bool;
}

(* body = i64 seq ^ payload, so a valid body is at least 8 bytes, and
   a whole frame is 16 bytes longer than its payload. *)
let frame ~seq payload =
  let body_len = 8 + String.length payload in
  let b = Buffer.create (body_len + 8) in
  Wire.u32 b body_len;
  (* CRC over the body; computed on a throwaway buffer so the frame is
     assembled in one pass. *)
  let body = Buffer.create body_len in
  Wire.i64 body seq;
  Buffer.add_string body payload;
  let body = Buffer.contents body in
  Wire.u32 b (Crc32.digest body);
  Buffer.add_string b body;
  Buffer.contents b

let u32_at data pos =
  Int32.to_int (Bytes.get_int32_le (Bytes.unsafe_of_string data) pos) land 0xFFFFFFFF

let i64_at data pos = Int64.to_int (Bytes.get_int64_le (Bytes.unsafe_of_string data) pos)

let parse data =
  let n = String.length data in
  let rec go pos acc =
    if n - pos < 8 then finish pos acc
    else
      let len = u32_at data pos in
      let crc = u32_at data (pos + 4) in
      if len < 8 || len > n - pos - 8 then finish pos acc
      else if Crc32.digest_sub data ~pos:(pos + 8) ~len <> crc then finish pos acc
      else
        let seq = i64_at data (pos + 8) in
        let payload = String.sub data (pos + 16) (len - 8) in
        go (pos + 8 + len) ((seq, payload) :: acc)
  and finish pos acc =
    { records = List.rev acc; valid_bytes = pos; truncated = pos < n }
  in
  go 0 []

type replay = {
  applied : int;
  last_seq : int;
  applied_bytes : int;
  stopped : string option;
}

let replay { records; _ } ~after apply =
  let rec go ~expected ~bytes ~applied = function
    | (seq, payload) :: rest when seq <= after ->
      go ~expected ~bytes:(bytes + 16 + String.length payload) ~applied rest
    | (seq, payload) :: rest ->
      let stop why =
        { applied; last_seq = expected - 1; applied_bytes = bytes; stopped = Some why }
      in
      if seq <> expected then
        stop (Printf.sprintf "sequence gap: expected %d, found %d" expected seq)
      else (
        match apply payload with
        | Ok () ->
          go ~expected:(seq + 1) ~bytes:(bytes + 16 + String.length payload)
            ~applied:(applied + 1) rest
        | Error why -> stop (Printf.sprintf "replay of seq %d failed: %s" seq why)
        | exception e ->
          stop (Printf.sprintf "replay raised at seq %d: %s" seq (Printexc.to_string e)))
    | [] -> { applied; last_seq = expected - 1; applied_bytes = bytes; stopped = None }
  in
  go ~expected:(after + 1) ~bytes:0 ~applied:0 records

let append store ~blob ~seq payload = Store.append store blob (frame ~seq payload)
let read store ~blob = parse (Store.read store blob)

let compact store ~blob ~upto =
  let { records; _ } = read store ~blob in
  let keep = List.filter (fun (seq, _) -> seq > upto) records in
  let n_keep = List.length keep and n_all = List.length records in
  if n_keep = 0 then begin
    (* Everything (and any torn tail) is covered by the checkpoint. *)
    if Store.read store blob <> "" then Store.reset store blob
  end
  else if n_keep < n_all then begin
    (* Rewrite the suffix atomically: a crash leaves either the full log
       or the compacted one, both of which recovery handles. *)
    let b = Buffer.create 4096 in
    List.iter (fun (seq, payload) -> Buffer.add_string b (frame ~seq payload)) keep;
    Store.replace store blob (Buffer.contents b)
  end;
  n_all - n_keep
