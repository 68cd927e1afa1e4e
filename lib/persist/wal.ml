type read_result = {
  records : (int * string) list;
  valid_bytes : int;
  truncated : bool;
}

(* uint body-length ^ u32 crc32(body) ^ body: both frame shapes' header. *)
let add_crc_framed b body =
  Wire.uint b (String.length body);
  Wire.u32 b (Crc32.digest body);
  Buffer.add_string b body

let frame ~seq payload =
  let body = Buffer.create (String.length payload + 9) in
  Wire.uint body seq;
  Buffer.add_string body payload;
  let body = Buffer.contents body in
  let b = Buffer.create (String.length body + 13) in
  add_crc_framed b body;
  Buffer.contents b

(* The frame of a run of consecutive records from [seq]. Buffers are
   sized to the frame: a batch of small records stays in the minor heap. *)
let run_frame ~seq = function
  | [ payload ] -> frame ~seq payload
  | payloads ->
    let body = Buffer.create (List.fold_left (fun n p -> n + String.length p + 9) 9 payloads) in
    Wire.uint body seq;
    List.iter (Wire.str body) payloads;
    let body = Buffer.contents body in
    let b = Buffer.create (String.length body + 14) in
    Buffer.add_char b '\x00';
    add_crc_framed b body;
    Buffer.contents b

let frames records =
  (* [run] holds the payloads numbered [first ..], newest first. *)
  let rec go acc ~first ~next run = function
    | (seq, payload) :: rest when seq = next -> go acc ~first ~next:(next + 1) (payload :: run) rest
    | records -> (
      let acc = if run = [] then acc else run_frame ~seq:first (List.rev run) :: acc in
      match (records, acc) with
      | [], [ frame ] -> frame
      | [], _ -> String.concat "" (List.rev acc)
      | (seq, payload) :: rest, _ -> go acc ~first:seq ~next:(seq + 1) [ payload ] rest)
  in
  go [] ~first:0 ~next:0 [] records

(* The frame at [pos], as its records in log order and its end offset,
   or [None] if it cannot be trusted: a header cut short or not
   canonical, a length that is empty, negative or past the end of
   [data], a CRC mismatch, a body whose seq does not fit in it, or a
   batch of fewer than two records or whose records do not fill its
   body exactly. *)
let frame_at data pos =
  match
    let batch = pos < String.length data && data.[pos] = '\x00' in
    let r = Wire.reader ~pos:(if batch then pos + 1 else pos) data in
    let len = Wire.get_uint r in
    let crc = Wire.get_u32 r in
    let body = Wire.pos r in
    if len < 1 || len > String.length data - body then None
    else if Crc32.digest_sub data ~pos:body ~len <> crc then None
    else
      let seq = Wire.get_uint r in
      let stop = body + len in
      if Wire.pos r > stop then None
      else if not batch then
        Some ([ (seq, String.sub data (Wire.pos r) (stop - Wire.pos r)) ], stop)
      else
        let rec records seq acc =
          if Wire.pos r >= stop then acc else records (seq + 1) ((seq, Wire.get_str r) :: acc)
        in
        match records seq [] with
        | _ :: _ :: _ as recs when Wire.pos r = stop -> Some (List.rev recs, stop)
        | _ -> None
  with
  | v -> v
  | exception Wire.Corrupt _ -> None

let parse data =
  let rec go pos recs =
    match frame_at data pos with
    | Some (frame, stop) -> go stop (List.rev_append frame recs)
    | None ->
      { records = List.rev recs; valid_bytes = pos; truncated = pos < String.length data }
  in
  go 0 []

type replay = {
  applied : int;
  last_seq : int;
  stopped : string option;
}

let replay { records; _ } ~after apply =
  let rec go ~expected ~applied = function
    | (seq, _) :: rest when seq <= after -> go ~expected ~applied rest
    | (seq, payload) :: rest -> (
      let stop why = { applied; last_seq = expected - 1; stopped = Some why } in
      if seq <> expected then
        stop (Printf.sprintf "sequence gap: expected %d, found %d" expected seq)
      else
        match apply payload with
        | Ok () -> go ~expected:(seq + 1) ~applied:(applied + 1) rest
        | Error why -> stop (Printf.sprintf "replay of seq %d failed: %s" seq why)
        | exception e ->
          stop (Printf.sprintf "replay raised at seq %d: %s" seq (Printexc.to_string e)))
    | [] -> { applied; last_seq = expected - 1; stopped = None }
  in
  go ~expected:(after + 1) ~applied:0 records

let append store ~blob ~seq payload = Store.append store blob (frame ~seq payload)
let read store ~blob = parse (Store.read store blob)
