let fsync_out oc =
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc)
  with Unix.Unix_error (err, _, _) ->
    raise (Sys_error ("fsync: " ^ Unix.error_message err))

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (err, _, _) ->
    raise (Sys_error (Printf.sprintf "fsync %s: %s" dir (Unix.error_message err)))
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try Unix.fsync fd with
        (* Some filesystems refuse fsync on a directory fd; there is
           nothing more we can do there, and the rename itself is still
           atomic — only its durability ordering is best-effort. *)
        | Unix.Unix_error ((Unix.EINVAL | Unix.EBADF), _, _) -> ()
        | Unix.Unix_error (err, _, _) ->
          raise (Sys_error (Printf.sprintf "fsync %s: %s" dir (Unix.error_message err))))

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
