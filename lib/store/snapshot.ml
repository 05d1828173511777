module Storage = Mirror_core.Storage
module Mirror = Mirror_core.Mirror
module Fsx = Mirror_util.Fsx
module Codec = Mirror_util.Codec

let ( let* ) = Result.bind

let of_storage stor =
  List.concat_map
    (fun name ->
      match Storage.extent_type stor name with
      | Some ty ->
        [
          Record.Define (name, ty);
          Record.Replace (name, Option.value ~default:[] (Storage.extent_rows stor name));
        ]
      | None -> [])
    (Storage.extents stor)

let write path records =
  Out_channel.with_open_bin path (fun oc ->
      let n =
        List.fold_left
          (fun n r ->
            output_string oc (Codec.frame (Record.encode r));
            n + 1)
          0 records
      in
      output_string oc (Codec.frame (Record.encode (Record.End n)));
      Fsx.fsync_out oc)

(* The frames are read one at a time, whole and checksummed; the [End]
   marker, last and counting every record before it, is what tells a
   complete file from one cut anywhere, at a frame boundary too. *)
let read path =
  Mirror_core.Bootstrap.ensure ();
  let rec decode ic k acc =
    match Codec.input_frame ic with
    | None -> Error "cut short: no end marker"
    | Some payload -> (
      match Record.decode payload with
      | Error e -> Error (Printf.sprintf "record %d: %s" k e)
      | Ok (Record.End _) when In_channel.input_char ic <> None ->
        Error (Printf.sprintf "record %d: an end marker before the end" k)
      | Ok (Record.End n) when n <> k ->
        Error (Printf.sprintf "the end marker counts %d records, the file holds %d" n k)
      | Ok (Record.End _) -> Ok (List.rev acc)
      | Ok r -> decode ic (k + 1) (r :: acc))
  in
  Result.map_error (Printf.sprintf "snapshot %s: %s" path)
    (match In_channel.with_open_bin path (fun ic -> decode ic 0 []) with
    | r -> r
    | exception (Sys_error e | Codec.Bad e) -> Error e)

let redo mir r =
  let stor = Mirror.storage mir in
  let in_extent name = Result.map_error (Printf.sprintf "extent %S: %s" name) in
  match r with
  | Record.Define (name, ty) -> in_extent name (Storage.define stor ~name ty)
  | Record.Replace (name, rows) -> in_extent name (Result.map ignore (Storage.load stor ~name rows))
  | Record.Insert (name, rows) -> in_extent name (Result.map ignore (Storage.insert stor ~name rows))
  | Record.Delete (name, positions) -> in_extent name (Storage.delete_positions stor ~name positions)
  | Record.Feedback { query; judgements } ->
    Mirror.replay_feedback mir ~query ~judgements;
    Ok ()
  | _ -> Ok ()

let file dir = Filename.concat dir "snapshot"

let save stor ~dir =
  match
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
    else if not (Sys.is_directory dir) then failwith (dir ^ " exists and is not a directory");
    let tmp = file dir ^ ".tmp" in
    write tmp (of_storage stor);
    Sys.rename tmp (file dir);
    Fsx.fsync_dir dir
  with
  | () -> Ok ()
  | exception (Sys_error e | Failure e | Invalid_argument e) -> Error e

let load ~dir =
  let mir = Mirror.create () in
  let* records = read (file dir) in
  let* () =
    List.fold_left
      (fun acc r ->
        let* () = acc in
        redo mir r)
      (Ok ()) records
  in
  Ok (Mirror.storage mir)
