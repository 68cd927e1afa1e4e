exception Crash of string

let () =
  Printexc.register_printer (function
    | Crash point -> Some (Printf.sprintf "Persist.Store.Crash(%s)" point)
    | _ -> None)

type t = {
  store_name : string;
  read : string -> string;
  append : string -> string -> unit;
  fsync : string -> unit;
  reset : string -> unit;
  truncate : string -> int -> unit;
  replace : string -> string -> unit;
  power_fail : unit -> unit;
}

let wal_blob = "wal"
let snap_blob = "snap"
let seg_blob = "segs"

let read t blob = t.read blob

(* Durability choke points: every WAL append/fsync and checkpoint write in
   the system funnels through these wrappers, so one span here profiles
   the whole persistence path. The span is exception-safe — a [Crash]
   raised by an injected torn write still closes it. Handles are hoisted
   so the per-append cost is the span itself, not a registry lookup. *)
let h_wal_append = Obs.Profile.handle "wal.append"
let h_wal_fsync = Obs.Profile.handle "wal.fsync"
let h_snap_write = Obs.Profile.handle "snapshot.write"
let h_snap_fsync = Obs.Profile.handle "snapshot.fsync"
let h_seg_write = Obs.Profile.handle "segment.write"
let h_seg_fsync = Obs.Profile.handle "segment.fsync"

let append t blob data =
  Obs.Profile.span_h
    (if blob = wal_blob then h_wal_append
     else if blob = seg_blob then h_seg_write
     else h_snap_write)
    (fun () -> t.append blob data)

let fsync t blob =
  Obs.Profile.span_h
    (if blob = wal_blob then h_wal_fsync
     else if blob = seg_blob then h_seg_fsync
     else h_snap_fsync)
    (fun () -> t.fsync blob)

let reset t blob = t.reset blob
let truncate t blob keep = t.truncate blob keep
let replace t blob contents = t.replace blob contents

(* Power loss takes the whole device's write cache with it, not just
   the blob whose operation was in flight: every crash path must drop
   every pending buffer, or stale unacknowledged bytes from before the
   crash would be flushed into the stream by a later fsync. *)
let power_fail t = t.power_fail ()

(* Power can fail while a write is in flight: the medium keeps an
   arbitrary prefix of the bytes being flushed (a torn sector). The
   prefix length is a pure function of the bytes and the trip count so
   chaos runs are replayable from their fault-plan seed. *)
let p_wal_append = Fault.register "wal.append"
let p_wal_fsync = Fault.register "wal.fsync"
let p_snapshot_write = Fault.register "snapshot.write"
let p_segment_write = Fault.register "segment.write"

(* Power failure between issuing a rename (or creating a file) and the
   directory entry reaching the medium: the new name simply never
   becomes visible. Firing this point models the un-fsynced-directory
   window; the durable contents stay whatever they were before. *)
let p_dir_fsync = Fault.register "store.dir_fsync"

let c_dir_fsync = Obs.Metrics.counter "store.dir_fsync"

let append_point blob =
  if blob = wal_blob then p_wal_append
  else if blob = seg_blob then p_segment_write
  else p_snapshot_write

let torn_len ~bytes ~trip = Hashtbl.hash (bytes, trip) mod (String.length bytes + 1)

(* --- in-memory block device ---------------------------------------- *)

let mem ?(preload = []) () =
  let durable = Hashtbl.create 4 and pending = Hashtbl.create 4 in
  List.iter
    (fun (blob, contents) ->
      let b = Buffer.create (String.length contents + 256) in
      Buffer.add_string b contents;
      Hashtbl.replace durable blob b)
    preload;
  let buf tbl blob =
    match Hashtbl.find_opt tbl blob with
    | Some b -> b
    | None ->
      let b = Buffer.create 256 in
      Hashtbl.replace tbl blob b;
      b
  in
  let power_fail () = Hashtbl.iter (fun _ b -> Buffer.clear b) pending in
  let append blob data =
    let point = append_point blob in
    if Fault.fires point then begin
      (* Power failure mid-write: everything buffered for this blob,
         including the record being appended, races to the medium and
         an arbitrary prefix wins; every other blob's cache is gone. *)
      let p = buf pending blob in
      let bytes = Buffer.contents p ^ data in
      let keep = torn_len ~bytes ~trip:(Fault.trips point) in
      power_fail ();
      Buffer.add_substring (buf durable blob) bytes 0 keep;
      raise (Crash (Fault.name point))
    end;
    Buffer.add_string (buf pending blob) data
  in
  let fsync blob =
    if blob = wal_blob && Fault.fires p_wal_fsync then begin
      (* Power failure before the flush reached the medium: the pending
         bytes are simply gone. *)
      power_fail ();
      raise (Crash (Fault.name p_wal_fsync))
    end;
    let p = buf pending blob in
    Buffer.add_buffer (buf durable blob) p;
    Buffer.clear p
  in
  let read blob = Buffer.contents (buf durable blob) in
  let dir_barrier _blob =
    (* The mem device has no directory, but the rename-durability window
       is the same: if power fails before the "rename" is durable, the
       durable bytes stay exactly what they were. *)
    if Fault.fires p_dir_fsync then begin
      power_fail ();
      raise (Crash (Fault.name p_dir_fsync))
    end
  in
  let reset blob =
    dir_barrier blob;
    Buffer.clear (buf durable blob);
    Buffer.clear (buf pending blob)
  in
  let truncate blob keep =
    dir_barrier blob;
    let b = buf durable blob in
    if keep < Buffer.length b then Buffer.truncate b keep
  in
  let replace blob contents =
    dir_barrier blob;
    let b = buf durable blob in
    Buffer.clear b;
    Buffer.add_string b contents;
    Buffer.clear (buf pending blob)
  in
  { store_name = "mem"; read; append; fsync; reset; truncate; replace; power_fail }

(* --- file-backed store ---------------------------------------------- *)

let file ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path blob = Filename.concat dir (blob ^ ".bin") in
  let pending = Hashtbl.create 4 in
  let buf blob =
    match Hashtbl.find_opt pending blob with
    | Some b -> b
    | None ->
      let b = Buffer.create 256 in
      Hashtbl.replace pending blob b;
      b
  in
  let dir_fsync () =
    (* Renames and file creation mutate the directory, not the file;
       without this barrier a freshly checkpointed blob can vanish on
       power loss even though its own bytes were flushed. *)
    Obs.Metrics.incr c_dir_fsync;
    let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
  in
  let write_file pa flag data =
    (* Durable means fsynced: closing the channel only hands the bytes
       to the OS page cache, which power loss takes with it. *)
    let fd = Unix.openfile pa [ Unix.O_WRONLY; flag; Unix.O_CREAT ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let b = Bytes.of_string data in
        let n = Bytes.length b in
        let written = ref 0 in
        while !written < n do
          written := !written + Unix.write fd b !written (n - !written)
        done;
        Unix.fsync fd)
  in
  let write_out blob data =
    let fresh = not (Sys.file_exists (path blob)) in
    write_file (path blob) Unix.O_APPEND data;
    if fresh then dir_fsync ()
  in
  let power_fail () = Hashtbl.iter (fun _ b -> Buffer.clear b) pending in
  let append blob data =
    let point = append_point blob in
    if Fault.fires point then begin
      let p = buf blob in
      let bytes = Buffer.contents p ^ data in
      let keep = torn_len ~bytes ~trip:(Fault.trips point) in
      power_fail ();
      write_out blob (String.sub bytes 0 keep);
      raise (Crash (Fault.name point))
    end;
    Buffer.add_string (buf blob) data
  in
  let fsync blob =
    if blob = wal_blob && Fault.fires p_wal_fsync then begin
      power_fail ();
      raise (Crash (Fault.name p_wal_fsync))
    end;
    let p = buf blob in
    if Buffer.length p > 0 then write_out blob (Buffer.contents p);
    Buffer.clear p
  in
  let read blob =
    let pa = path blob in
    if Sys.file_exists pa then begin
      let ic = open_in_bin pa in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    end
    else ""
  in
  let swap_in blob contents =
    (* The temp file is fsynced before the rename publishes it. A crash
       before the rename is durable leaves the old name intact and the
       tmp file as garbage — the new contents never happened. *)
    let tmp = path blob ^ ".tmp" in
    write_file tmp Unix.O_TRUNC contents;
    if Fault.fires p_dir_fsync then begin
      (try Sys.remove tmp with Sys_error _ -> ());
      power_fail ();
      raise (Crash (Fault.name p_dir_fsync))
    end;
    Sys.rename tmp (path blob);
    dir_fsync ()
  in
  let reset blob =
    (* Atomic truncation: a crash between writing the empty temp file
       and the rename leaves either the old blob or the new empty one,
       never a half-truncated file. *)
    swap_in blob "";
    Buffer.clear (buf blob)
  in
  let truncate blob keep =
    (* Same atomic-rename discipline as [reset]: the durable file is
       either the old bytes or the kept prefix, never a partial copy. *)
    let contents = read blob in
    if keep < String.length contents then swap_in blob (String.sub contents 0 keep)
  in
  let replace blob contents =
    (* Like the mem device: bytes appended before the replace are not
       part of the new contents, so a later fsync must not append them. *)
    swap_in blob contents;
    Buffer.clear (buf blob)
  in
  { store_name = "file:" ^ dir; read; append; fsync; reset; truncate; replace; power_fail }
