module Catalog = Mirror_bat.Catalog
module Bat = Mirror_bat.Bat
module Atom = Mirror_bat.Atom
module Column = Mirror_bat.Column
module Mil = Mirror_bat.Mil

let ( let* ) = Result.bind

let schema_file dir = Filename.concat dir "schema.moa"
let catalog_file dir = Filename.concat dir "catalog.bats"

let save storage ~dir =
  match
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
    else if not (Sys.is_directory dir) then failwith (dir ^ " exists and is not a directory")
  with
  | exception Sys_error e -> Error e
  | exception Failure e -> Error e
  | () ->
    (* Both files go through temp-file + fsync + rename, so a crash
       mid-save leaves the previous snapshot intact (each file
       individually; multi-file atomicity is the checkpoint protocol's
       job, see [Mirror_store.Durable]).  The directory fsync at the
       end persists both renames — without it power loss could keep a
       rename whose file contents never reached the disk. *)
    let schema = schema_file dir in
    let tmp = schema ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun name ->
            match Storage.extent_type storage name with
            | Some ty -> Printf.fprintf oc "define %s as %s;\n" name (Types.to_string ty)
            | None -> ())
          (Storage.extents storage);
        Mirror_util.Fsx.fsync_out oc);
    Sys.rename tmp schema;
    Catalog.save_file (Storage.catalog storage) (catalog_file dir);
    Mirror_util.Fsx.fsync_dir dir;
    Ok ()

let max_oid_in_catalog cat =
  List.fold_left
    (fun acc name ->
      let b = Catalog.get cat name in
      let scan col acc =
        match col with
        | Column.O arr -> Array.fold_left max acc arr
        | Column.I _ | Column.F _ | Column.S _ | Column.B _ -> acc
      in
      scan (Bat.head b) (scan (Bat.tail b) acc))
    (-1) (Catalog.names cat)

let load ~dir =
  Bootstrap.ensure ();
  if not (Sys.file_exists (schema_file dir)) then
    Error (Printf.sprintf "no schema file in %S" dir)
  else
    let* loaded_cat = Catalog.load_file (catalog_file dir) in
    let schema_src =
      let ic = open_in (schema_file dir) in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let* stmts = Parser.parse_program schema_src in
    let storage = Storage.create () in
    List.iter
      (fun name -> Catalog.put (Storage.catalog storage) name (Catalog.get loaded_cat name))
      (Catalog.names loaded_cat);
    Storage.bump_store_base storage (max_oid_in_catalog loaded_cat);
    let session () =
      Mil.session
        ~foreign:(Extension.foreign_dispatch (Storage.eval_env storage))
        (Storage.catalog storage)
    in
    List.fold_left
      (fun acc stmt ->
        let* () = acc in
        match stmt with
        | Parser.Query _ | Parser.Let _ | Parser.Insert _ | Parser.Delete _ ->
          Error "schema file contains a non-define statement"
        | Parser.Define (name, ty) ->
          Result.map_error (Printf.sprintf "extent %S: %s" name)
          @@
          let* shape = Storage.define_restored storage ~name ty in
          (* recover the logical rows for the naive evaluator *)
          match Eval.reify ~lookup:(Mil.exec (session ())) shape with
          | Value.VSet rows ->
            Storage.set_rows storage ~name rows;
            Ok ()
          | other -> Error ("reified to a non-set value " ^ Value.to_string other)
          | exception (Failure e | Invalid_argument e) -> Error e
          | exception Not_found -> Error "missing catalog entries")
      (Ok ()) stmts
    |> Result.map (fun () -> storage)
