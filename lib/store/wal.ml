module Crc32 = Mirror_util.Crc32
module Faults = Mirror_daemon.Faults
module Fsx = Mirror_util.Fsx
module Metrics = Mirror_util.Metrics

type config = { segment_bytes : int }

let default_config = { segment_bytes = 1 lsl 20 }

(* Frames over [max_record] are rejected on both sides: the writer
   never produces them, so on replay an implausible length field is
   proof of damage rather than a huge allocation request. *)
let max_record = 1 lsl 26

let seg_name first_lsn = Printf.sprintf "wal.%012d.log" first_lsn

let segments ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun f ->
           match Scanf.sscanf_opt f "wal.%d.log%!" Fun.id with
           | Some first when seg_name first = f -> Some (first, Filename.concat dir f)
           | _ -> None)
    |> List.sort compare

(* {1 Appending} *)

type stats = { appends : int; fsyncs : int }

let zero_stats = { appends = 0; fsyncs = 0 }
let add_stats a b = { appends = a.appends + b.appends; fsyncs = a.fsyncs + b.fsyncs }

type t = {
  dir : string;
  config : config;
  mutable oc : out_channel;
  mutable seg_bytes : int;
  mutable next : int;
  mutable dirty : bool;  (* appended since the last fsync *)
  mutable broken : string option;
  mutable appends : int;
  mutable fsyncs : int;
}

let open_segment dir first_lsn =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out_bin (Filename.concat dir (seg_name first_lsn)) in
  (* persist the segment's directory entry: data fsyncs on the fd
     alone would not survive losing the file name itself *)
  Fsx.fsync_dir dir;
  oc

let create ?(config = default_config) ~dir ~start_lsn () =
  {
    dir;
    config;
    oc = open_segment dir start_lsn;
    seg_bytes = 0;
    next = start_lsn;
    dirty = false;
    broken = None;
    appends = 0;
    fsyncs = 0;
  }

let stats t = { appends = t.appends; fsyncs = t.fsyncs }

let next_lsn t = t.next

let check_broken t =
  match t.broken with Some m -> raise (Sys_error m) | None -> ()

(* A failed fsync leaves the page cache in an unknown state (the
   kernel may have dropped the dirty pages while reporting the error
   once), so a later successful fsync proves nothing about earlier
   appends.  The only sound reaction is to poison the writer: the
   error propagates now and on every subsequent use. *)
let sync t =
  check_broken t;
  flush t.oc;
  (try Unix.fsync (Unix.descr_of_out_channel t.oc)
   with Unix.Unix_error (err, _, _) ->
     let m = "WAL fsync failed, log writer poisoned: " ^ Unix.error_message err in
     t.broken <- Some m;
     raise (Sys_error m));
  t.fsyncs <- t.fsyncs + 1;
  t.dirty <- false

(* A segment is left (rolled or closed) fsynced; with the owner
   syncing every commit there is nothing left to sync. *)
let roll t =
  if t.dirty then sync t;
  close_out t.oc;
  t.oc <- open_segment t.dir t.next;
  t.seg_bytes <- 0

let frame payload =
  let len = String.length payload in
  if len > max_record then invalid_arg "Wal.append: record too large";
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (Crc32.string payload));
  Bytes.blit_string payload 0 b 8 len;
  b

let append t payload =
  check_broken t;
  if t.seg_bytes >= t.config.segment_bytes then roll t;
  let b = frame payload in
  (match Faults.write_allowance (Bytes.length b) with
  | None -> output_bytes t.oc b
  | Some k ->
    output_bytes t.oc (Bytes.sub b 0 k);
    flush t.oc;
    raise (Faults.Crash (Printf.sprintf "torn WAL append (%d of %d bytes)" k (Bytes.length b))));
  t.seg_bytes <- t.seg_bytes + Bytes.length b;
  let lsn = t.next in
  t.next <- lsn + 1;
  t.appends <- t.appends + 1;
  t.dirty <- true;
  flush t.oc;
  if Metrics.enabled () then begin
    Metrics.incr "wal.append";
    Metrics.incr ~by:(Bytes.length b) "wal.bytes"
  end;
  lsn

let close t =
  match t.broken with
  | Some _ -> close_out_noerr t.oc
  | None ->
    if t.dirty then sync t;
    close_out t.oc

(* Strict scan of a framed byte string (no torn-tail allowance): used
   for framed files that are written atomically, where any damage at
   all is corruption rather than a crash shape. *)
let parse_frames src =
  let len = String.length src in
  let rec go pos acc =
    if pos = len then Ok (List.rev acc)
    else if pos + 8 > len then Error "truncated frame header"
    else
      let rlen = Int32.to_int (String.get_int32_le src pos) in
      let crc = Int32.to_int (String.get_int32_le src (pos + 4)) land 0xFFFFFFFF in
      if rlen < 0 || rlen > max_record then
        Error (Printf.sprintf "implausible frame length %d" rlen)
      else if pos + 8 + rlen > len then Error "truncated frame payload"
      else
        let payload = String.sub src (pos + 8) rlen in
        if Crc32.string payload <> crc then Error "frame checksum mismatch"
        else go (pos + 8 + rlen) (payload :: acc)
  in
  go 0 []

(* {1 Replay} *)

type replay_end = Clean | Torn of string | Corrupt of string

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Scan one segment.  Returns the LSN after its last good record and
   how it ended; [Torn] is only legitimate in the final segment. *)
let scan_segment ~is_last ~first_lsn ~from_lsn ~f path =
  let src = read_file path in
  let len = String.length src in
  let where lsn = Printf.sprintf "%s, record %d" (Filename.basename path) lsn in
  let rec go pos lsn =
    if pos = len then (lsn, Clean)
    else if pos + 8 > len then
      if is_last then (lsn, Torn (where lsn ^ ": truncated frame header"))
      else (lsn, Corrupt (where lsn ^ ": truncated frame header mid-log"))
    else
      let rlen = Int32.to_int (String.get_int32_le src pos) in
      let crc = Int32.to_int (String.get_int32_le src (pos + 4)) land 0xFFFFFFFF in
      if rlen < 0 || rlen > max_record then
        (lsn, Corrupt (Printf.sprintf "%s: implausible record length %d" (where lsn) rlen))
      else if pos + 8 + rlen > len then
        if is_last then (lsn, Torn (where lsn ^ ": truncated record payload"))
        else (lsn, Corrupt (where lsn ^ ": truncated record payload mid-log"))
      else
        let payload = String.sub src (pos + 8) rlen in
        if Crc32.string payload <> crc then
          (lsn, Corrupt (where lsn ^ ": record checksum mismatch"))
        else begin
          if lsn >= from_lsn then f lsn payload;
          go (pos + 8 + rlen) (lsn + 1)
        end
  in
  go 0 first_lsn

let replay ~dir ~from_lsn ~f =
  match segments ~dir with
  | [] -> Ok (from_lsn, Clean)
  | (first0, _) :: _ when first0 > from_lsn ->
    Error (Printf.sprintf "WAL starts at LSN %d, after the requested %d" first0 from_lsn)
  | (first0, _) :: _ as segs ->
    (* Segments must tile history contiguously: each starts where the
       previous one's record count left off.  A gap means a segment
       went missing — corruption, not a prefix. *)
    let rec loop segs expected =
      match segs with
      | [] -> Ok (max expected from_lsn, Clean)
      | (first, path) :: rest -> (
        if first <> expected then
          Ok
            ( max expected from_lsn,
              Corrupt
                (Printf.sprintf "segment %s starts at LSN %d, expected %d"
                   (Filename.basename path) first expected) )
        else
          match scan_segment ~is_last:(rest = []) ~first_lsn:first ~from_lsn ~f path with
          | exception Sys_error e -> Error e
          | next, Clean -> loop rest next
          | next, end_ -> Ok (max next from_lsn, end_))
    in
    loop segs first0
