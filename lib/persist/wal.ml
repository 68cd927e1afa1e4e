type read_result = {
  records : (int * string) list;
  sizes : int list;
  valid_bytes : int;
  truncated : bool;
}

(* frame = uint body-length ^ u32 crc32(body) ^ body, where
   body = uint seq ^ payload. *)
let frame ~seq payload =
  let body = Buffer.create (String.length payload + 9) in
  Wire.uint body seq;
  Buffer.add_string body payload;
  let body = Buffer.contents body in
  let b = Buffer.create (String.length body + 13) in
  Wire.uint b (String.length body);
  Wire.u32 b (Crc32.digest body);
  Buffer.add_string b body;
  Buffer.contents b

(* The frame at [pos], as (seq, payload, end offset), or [None] if it
   cannot be trusted: a header cut short or not canonical, a length
   that is empty, negative or past the end of [data], a CRC mismatch,
   or a body whose seq does not fit in it. *)
let frame_at data pos =
  match
    let r = Wire.reader ~pos data in
    let len = Wire.get_uint r in
    let crc = Wire.get_u32 r in
    let body = Wire.pos r in
    if len < 1 || len > String.length data - body then None
    else if Crc32.digest_sub data ~pos:body ~len <> crc then None
    else
      let seq = Wire.get_uint r in
      let stop = body + len in
      if Wire.pos r > stop then None
      else Some (seq, String.sub data (Wire.pos r) (stop - Wire.pos r), stop)
  with
  | v -> v
  | exception Wire.Corrupt _ -> None

let parse data =
  let rec go pos recs sizes =
    match frame_at data pos with
    | Some (seq, payload, stop) -> go stop ((seq, payload) :: recs) ((stop - pos) :: sizes)
    | None ->
      { records = List.rev recs; sizes = List.rev sizes; valid_bytes = pos;
        truncated = pos < String.length data }
  in
  go 0 [] []

type replay = {
  applied : int;
  last_seq : int;
  applied_bytes : int;
  stopped : string option;
}

let replay { records; sizes; _ } ~after apply =
  let rec go ~expected ~bytes ~applied records sizes =
    match (records, sizes) with
    | (seq, _) :: rest, size :: sizes when seq <= after ->
      go ~expected ~bytes:(bytes + size) ~applied rest sizes
    | (seq, payload) :: rest, size :: sizes -> (
      let stop why =
        { applied; last_seq = expected - 1; applied_bytes = bytes; stopped = Some why }
      in
      if seq <> expected then
        stop (Printf.sprintf "sequence gap: expected %d, found %d" expected seq)
      else
        match apply payload with
        | Ok () -> go ~expected:(seq + 1) ~bytes:(bytes + size) ~applied:(applied + 1) rest sizes
        | Error why -> stop (Printf.sprintf "replay of seq %d failed: %s" seq why)
        | exception e ->
          stop (Printf.sprintf "replay raised at seq %d: %s" seq (Printexc.to_string e)))
    | _ -> { applied; last_seq = expected - 1; applied_bytes = bytes; stopped = None }
  in
  go ~expected:(after + 1) ~bytes:0 ~applied:0 records sizes

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
