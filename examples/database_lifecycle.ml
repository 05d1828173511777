(* The Mirror DBMS as a database: DDL, DML, views, persistence.

   "The Mirror DBMS provides the basic functionality ... just like
   traditional database systems provide the basic functionality to
   build administrative applications."  This walkthrough exercises that
   basic functionality end to end: define a content-bearing schema,
   insert and delete through statements, query through views, save the
   database to disk, load it back, and verify the statistics
   (document frequencies, inverted index) survived.

   Run with:  dune exec examples/database_lifecycle.exe *)

module Mirror = Mirror_core.Mirror
module Snapshot = Mirror_store.Snapshot
module Storage = Mirror_core.Storage
module Value = Mirror_core.Value

let ok = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("error: " ^ e);
    exit 1

let show_outcomes outcomes =
  List.iter
    (fun o ->
      match o with
      | Mirror.Defined n -> Printf.printf "  defined %s\n" n
      | Mirror.Bound n -> Printf.printf "  bound %s\n" n
      | Mirror.Inserted n -> Printf.printf "  inserted into %s\n" n
      | Mirror.Deleted (n, k) -> Printf.printf "  deleted %d row(s) from %s\n" k n
      | Mirror.Evaluated v -> Printf.printf "  = %s\n" (Value.to_string v))
    outcomes

let () =
  let m = Mirror.create () in

  print_endline "-- a session of statements --";
  show_outcomes
    (ok
       (Mirror.exec_program m
          "define Notes as SET< TUPLE< Atomic<str>: id, Atomic<int>: year, CONTREP<Text>: \
           body > >;"));

  (* DML goes through statements too; CONTREP fields are built by a
     host-side load here because insert rows must be closed
     expressions — we use the library API for those *)
  ignore
    (ok
       (Mirror.load m ~name:"Notes"
          [
            Value.Tup
              [
                ("id", Value.str "n1");
                ("year", Value.int 1998);
                ("body", Value.contrep (Mirror_ir.Tokenize.tf_bag "flattening the object algebra"));
              ];
            Value.Tup
              [
                ("id", Value.str "n2");
                ("year", Value.int 1999);
                ("body", Value.contrep (Mirror_ir.Tokenize.tf_bag "the mirror architecture demo"));
              ];
            Value.Tup
              [
                ("id", Value.str "n3");
                ("year", Value.int 2001);
                ("body", Value.contrep (Mirror_ir.Tokenize.tf_bag "obsolete draft, ignore"));
              ];
          ]));

  show_outcomes
    (ok
       (Mirror.exec_program m
          "let nineties = select[THIS.year < 2000](Notes);\n\
           count(nineties);\n\
           delete from Notes where THIS.year > 2000;\n\
           count(Notes);\n\
           map[tuple(id: THIS.id, score: sum(getBL(THIS.body, {'mirror'}, stats)))](Notes);"));

  (* persistence: one snapshot file, in the write-ahead log's own records *)
  let dir = Filename.temp_file "mirror" ".db" in
  Sys.remove dir;
  ok (Snapshot.save (Mirror.storage m) ~dir);
  Printf.printf "\n-- saved to %s --\n" dir;
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let ic = open_in_bin path in
      let size = in_channel_length ic in
      close_in ic;
      Printf.printf "  %s (%d bytes)\n" f size)
    (Array.to_list (Sys.readdir dir));

  let m2 = Mirror.of_storage (ok (Snapshot.load ~dir)) in
  print_endline "\n-- reloaded; statistics and index survive --";
  show_outcomes
    (ok
       (Mirror.exec_program m2
          "count(Notes);\n\
           map[tuple(id: THIS.id, score: sum(getBL(THIS.body, {'mirror'}, stats)))](Notes);\n\
           count(flatten(map[terms(THIS.body)](Notes)));"));

  (* clean up *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir
