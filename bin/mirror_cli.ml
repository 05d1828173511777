(* The Mirror DBMS command-line interface.

   Usage:
     dune exec bin/mirror_cli.exe                 -- interactive session
     dune exec bin/mirror_cli.exe -- -e "PROGRAM" -- evaluate and exit
     dune exec bin/mirror_cli.exe -- --demo 16    -- preload the §5 demo library
     dune exec bin/mirror_cli.exe -- lint         -- static-check the corpus
     dune exec bin/mirror_cli.exe -- lint "QUERY" -- static-check a query
     dune exec bin/mirror_cli.exe -- explain --check "QUERY"

   Inside the shell:
     define NAME as TYPE;      schema definition
     EXPR;                     run a Moa query
     .explain EXPR             show the compiled MIL plan bundle
     .lint EXPR                static-check a query against this database
     .extents                  list extents
     .catalog                  list catalog BATs
     .search TEXT              demo-library dual-coding search
     .help  .quit *)

module Mirror = Mirror_core.Mirror
module Value = Mirror_core.Value
module Eval = Mirror_core.Eval
module Parser = Mirror_core.Parser
module Storage = Mirror_core.Storage
module Plancheck = Mirror_core.Plancheck
module Lintreport = Mirror_core.Lintreport
module Moacheck = Mirror_core.Moacheck
module Moaprop = Mirror_core.Moaprop
module Corpus = Mirror_core.Corpus
module Shape = Mirror_core.Shape
module Milcheck = Mirror_bat.Milcheck
module Milprop = Mirror_bat.Milprop
module Mil = Mirror_bat.Mil
module Catalog = Mirror_bat.Catalog
module Bat = Mirror_bat.Bat
module Synth = Mirror_mm.Synth
module Prng = Mirror_util.Prng
module Durable = Mirror_store.Durable
module Wal = Mirror_store.Wal

let help_text =
  "commands:\n\
  \  define NAME as TYPE;   define an extent (paper DDL syntax)\n\
  \  EXPR;                  evaluate a Moa query\n\
  \  let NAME = EXPR;       bind an expression (view semantics)\n\
  \  insert into N EXPR;    append one row\n\
  \  delete from N where P; remove matching rows\n\
  \  .explain EXPR          show the flattened MIL plan\n\
  \  .lint EXPR             static-check a query (verifier + lint pass)\n\
  \  .profile EXPR          run with per-operator timing\n\
  \  .trace EXPR            run under a trace and show the span tree\n\
  \  .extents               list defined extents with types and sizes\n\
  \  .catalog               list the physical BATs\n\
  \  .search TEXT           dual-coding search over the demo library\n\
  \  .save DIR  .load DIR   persist / restore the database (extents)\n\
  \  .help                  this text\n\
  \  .quit                  leave"

(* sets/lists of flat tuples render as aligned tables *)
let try_table v =
  let open Mirror_core in
  let rows_of = function
    | Value.VSet rows | Value.Xv { ext = "LIST"; items = rows; _ } -> Some rows
    | _ -> None
  in
  match rows_of v with
  | Some (first :: _ as rows) when List.length rows > 1 -> (
    match first with
    | Value.Tup fields
      when List.for_all (fun (_, fv) -> match fv with Value.Atom _ -> true | _ -> false) fields
      ->
      let labels = List.map fst fields in
      let same_shape row =
        match row with
        | Value.Tup fs ->
          List.length fs = List.length labels
          && List.for_all2 (fun l (l', v) -> l = l' && (match v with Value.Atom _ -> true | _ -> false)) labels fs
        | _ -> false
      in
      if List.for_all same_shape rows then begin
        let t =
          Mirror_util.Tablefmt.create
            (List.map (fun l -> (l, Mirror_util.Tablefmt.Left)) labels)
        in
        List.iter
          (fun row ->
            Mirror_util.Tablefmt.add_row t
              (List.map
                 (fun (_, fv) ->
                   match fv with
                   | Value.Atom a -> Mirror_bat.Atom.to_string a
                   | _ -> assert false)
                 (Value.as_tuple row)))
          rows;
        Mirror_util.Tablefmt.print t;
        true
      end
      else false
    | _ -> false)
  | _ -> false

let print_result = function
  | Mirror.Defined name -> Printf.printf "defined %s\n" name
  | Mirror.Bound name -> Printf.printf "bound %s\n" name
  | Mirror.Inserted name -> Printf.printf "inserted into %s\n" name
  | Mirror.Deleted (name, n) -> Printf.printf "deleted %d row(s) from %s\n" n name
  | Mirror.Evaluated v -> if not (try_table v) then Printf.printf "%s\n" (Value.to_string v)

(* {1 Static analysis (lint / explain --check)} *)

(* Every layer of static checking over one query — the Moa-level shape
   analyzer (Moacheck), and the MIL bundle's one analysis read as
   envelope lint (Milcheck), effect-and-aliasing hazards (Effcheck) and
   resource bounds (Boundcheck) — through the shared Lintreport
   backend.  Returns 0 when no error-severity problem was found. *)
let lint_query st src =
  let q = Lintreport.check_src st src in
  Lintreport.print_query q;
  if q.Lintreport.failed then 1 else 0

let storage_for db =
  Mirror_core.Bootstrap.ensure ();
  match db with
  | None -> Corpus.storage ()
  | Some dir -> (
    match Mirror_store.Snapshot.load ~dir with
    | Ok st -> st
    | Error e -> failwith (Printf.sprintf "cannot load database %s: %s" dir e))

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let with_temp_dir f =
  let dir = Filename.temp_file "mirror-durable" ".db" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let report_sweep ~suffix srcs failures =
  Printf.printf "%d quer%s checked%s, %d problem%s\n" (List.length srcs)
    (if List.length srcs = 1 then "y" else "ies")
    suffix failures
    (if failures = 1 then "" else "s");
  if failures = 0 then 0 else 1

(* The same corpus sweep, but against a durable store: build the
   corpus extent through the journaled path, lint, close, reopen (so a
   checkpointed recovery runs) and certify the recovered database. *)
let lint_durable queries =
  Mirror_core.Bootstrap.ensure ();
  with_temp_dir (fun dir ->
      match Durable.open_ ~dir () with
      | Error e ->
        Printf.eprintf "error: cannot create durable store: %s\n" e;
        1
      | Ok (t, _) -> (
        let st = Durable.storage t in
        let built =
          Result.bind (Storage.define st ~name:"R" Corpus.schema) (fun () ->
              Result.map ignore (Storage.load st ~name:"R" Corpus.rows))
        in
        match built with
        | Error e ->
          Durable.close t;
          Printf.eprintf "error: cannot build corpus extent: %s\n" e;
          1
        | Ok () -> (
          let srcs = if queries = [] then Corpus.queries else queries in
          let failures = List.fold_left (fun acc src -> acc + lint_query st src) 0 srcs in
          Durable.close t;
          match Durable.open_ ~dir () with
          | Error e ->
            Printf.eprintf "FAIL  durable reopen: %s\n" e;
            1
          | Ok (t2, _) -> (
            let cert = Durable.certify t2 in
            Durable.close t2;
            match cert with
            | Error e ->
              Printf.printf "FAIL  durable certify: %s\n" e;
              1
            | Ok () -> report_sweep ~suffix:" against a recovered durable store" srcs failures))))

let lint_main db queries durable json =
  if durable then
    if json then begin
      Printf.eprintf "error: --json cannot be combined with --durable\n";
      1
    end
    else lint_durable queries
  else
    match storage_for db with
    | exception Failure e ->
      Printf.eprintf "error: %s\n" e;
      1
    | st ->
      let srcs = if queries = [] then Corpus.queries else queries in
      if json then begin
        let report = Lintreport.sweep st srcs in
        print_endline (Mirror_util.Jsonx.to_string (Lintreport.to_json report));
        if report.Lintreport.failures = 0 then 0 else 1
      end
      else
        let failures = List.fold_left (fun acc src -> acc + lint_query st src) 0 srcs in
        report_sweep ~suffix:"" srcs failures

let explain_main check db src =
  match storage_for db with
  | exception Failure e ->
    Printf.eprintf "error: %s\n" e;
    1
  | st -> (
    match Parser.parse_expr src with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok expr -> (
      match Eval.explain st expr with
      | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
      | Ok plan ->
        print_string plan;
        if not check then 0
        else (
          match Plancheck.vet st expr with
          | Error e ->
            Printf.printf "check: FAIL %s\n" e;
            1
          | Ok (_ : Plancheck.vetted) -> (
            match Eval.compile st expr with
            | Error e ->
              Printf.printf "check: FAIL flatten: %s\n" e;
              1
            | Ok (_, shape) ->
              let menv = Moacheck.env_of_storage st in
              let prop, _ = Moacheck.infer menv expr in
              Printf.printf "-- moa envelope: %s\n" (Moaprop.to_string prop);
              let analysis = Storage.analyze st shape in
              List.iteri
                (fun i p ->
                  Printf.printf "-- bat %d infers %s\n" (i + 1)
                    (Milprop.to_string (Milcheck.prop analysis p)))
                (Shape.plans shape);
              print_endline "check: ok";
              0))))

let handle_line mref line =
  let m = !mref in
  let line = String.trim line in
  if line = "" then ()
  else if line = ".quit" || line = ".exit" then raise Exit
  else if line = ".help" then print_endline help_text
  else if line = ".extents" then
    List.iter
      (fun name ->
        match Storage.extent_type (Mirror.storage m) name with
        | Some ty ->
          Printf.printf "%-24s %6d rows  %s\n" name
            (Storage.extent_count (Mirror.storage m) name)
            (Mirror_core.Types.to_string ty)
        | None -> ())
      (Storage.extents (Mirror.storage m))
  else if line = ".catalog" then
    List.iter
      (fun name ->
        let b = Catalog.get (Storage.catalog (Mirror.storage m)) name in
        Printf.printf "%-40s %8d rows  (%s -> %s)\n" name (Bat.count b)
          (Mirror_bat.Atom.ty_name (Bat.hty b))
          (Mirror_bat.Atom.ty_name (Bat.tty b)))
      (Catalog.names (Storage.catalog (Mirror.storage m)))
  else if Mirror_util.Stringx.starts_with ~prefix:".save " line then begin
    let dir = String.trim (String.sub line 6 (String.length line - 6)) in
    match Mirror_store.Snapshot.save (Mirror.storage m) ~dir with
    | Ok () -> Printf.printf "saved to %s\n" dir
    | Error e -> Printf.printf "error: %s\n" e
  end
  else if Mirror_util.Stringx.starts_with ~prefix:".load " line then begin
    let dir = String.trim (String.sub line 6 (String.length line - 6)) in
    match Mirror_store.Snapshot.load ~dir with
    | Ok st ->
      mref := Mirror.of_storage st;
      Printf.printf "loaded %d extent(s) from %s\n"
        (List.length (Storage.extents st)) dir
    | Error e -> Printf.printf "error: %s\n" e
  end
  else if Mirror_util.Stringx.starts_with ~prefix:".profile " line then begin
    let src = String.sub line 9 (String.length line - 9) in
    match
      Result.bind (Parser.parse_expr src) (fun e -> Eval.profile (Mirror.storage m) e)
    with
    | Ok rows ->
      List.iter
        (fun (op, t, n) -> Printf.printf "%-28s %9.3f ms  x%d\n" op (1000.0 *. t) n)
        rows
    | Error e -> Printf.printf "error: %s\n" e
  end
  else if Mirror_util.Stringx.starts_with ~prefix:".trace " line then begin
    let src = String.sub line 7 (String.length line - 7) in
    match
      Result.bind (Parser.parse_expr src) (fun e ->
          Eval.explain_analyze (Mirror.storage m) e)
    with
    | Ok text -> print_string text
    | Error e -> Printf.printf "error: %s\n" e
  end
  else if Mirror_util.Stringx.starts_with ~prefix:".lint " line then begin
    let src = String.trim (String.sub line 6 (String.length line - 6)) in
    ignore (lint_query (Mirror.storage m) src)
  end
  else if Mirror_util.Stringx.starts_with ~prefix:".explain " line then begin
    let src = String.sub line 9 (String.length line - 9) in
    match
      Result.bind (Parser.parse_expr src) (fun e -> Eval.explain (Mirror.storage m) e)
    with
    | Ok plan -> print_endline plan
    | Error e -> Printf.printf "error: %s\n" e
  end
  else if Mirror_util.Stringx.starts_with ~prefix:".search " line then begin
    let text = String.sub line 8 (String.length line - 8) in
    if Mirror.library_size m = 0 then
      print_endline "no demo library loaded; start with --demo N"
    else
      match Mirror.search m ~limit:8 text with
      | Ok hits ->
        List.iteri (fun i (url, s) -> Printf.printf "%d. %-14s %.4f\n" (i + 1) url s) hits
      | Error e -> Printf.printf "error: %s\n" e
  end
  else
    match Mirror.exec_program m line with
    | Ok outcomes -> List.iter print_result outcomes
    | Error e -> Printf.printf "error: %s\n" e

let load_demo ?journal m ~seed ~n =
  Printf.printf "building demo library (%d synthetic images)...\n%!" n;
  let scenes = Synth.corpus (Prng.create seed) ~n ~width:48 ~height:48 () in
  match Mirror.build_image_library m ?journal ~scenes () with
  | Ok report ->
    let open Mirror_daemon in
    Printf.printf "pipeline done: %d daemons, %d rounds, %d dead letters\n"
      (List.length report.Orchestrator.stats)
      report.Orchestrator.rounds
      (List.length report.Orchestrator.dead_letters);
    if not report.Orchestrator.quiescent then
      Printf.printf "NOT QUIESCENT: %d message(s) still pending\n"
        report.Orchestrator.pending;
    if report.Orchestrator.degraded <> [] then
      Printf.printf "DEGRADED: %s\n" (String.concat ", " report.Orchestrator.degraded)
  | Error e -> Printf.printf "demo build failed: %s\n" e

let repl m =
  let mref = ref m in
  print_endline "Mirror DBMS shell — .help for commands";
  try
    while true do
      print_string "mirror> ";
      match read_line () with
      | line -> ( try handle_line mref line with Failure e -> Printf.printf "error: %s\n" e)
      | exception End_of_file -> raise Exit
    done
  with Exit -> print_endline "bye"

let describe_recovery (r : Durable.recovery) =
  if r.Durable.replayed > 0 then
    Printf.printf "recovered: %d log record(s) replayed%s\n" r.Durable.replayed
      (match r.Durable.wal_end with Wal.Torn _ -> " (torn tail discarded)" | _ -> "");
  match r.Durable.wal_end with
  | Wal.Torn msg -> Printf.printf "torn write detected: %s\n" msg
  | Wal.Clean | Wal.Corrupt _ -> ()

let run_session ?durable eval_opt demo seed =
  let finish, m, journal =
    match durable with
    | None -> ((fun code -> code), Mirror.create (), None)
    | Some dir -> (
      match Durable.open_ ~dir () with
      | Error e -> failwith (Printf.sprintf "cannot open durable store %s: %s" dir e)
      | Ok (t, r) ->
        describe_recovery r;
        ( (fun code ->
            Durable.close t;
            code),
          Durable.mirror t,
          Some (Durable.store_journal t) ))
  in
  if demo > 0 then load_demo ?journal m ~seed ~n:demo;
  match eval_opt with
  | Some program -> (
    match Mirror.exec_program m program with
    | Ok outcomes ->
      List.iter print_result outcomes;
      finish 0
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      finish 1)
  | None ->
    repl m;
    finish 0

let main eval_opt demo seed durable =
  match run_session ?durable eval_opt demo seed with
  | code -> code
  | exception Failure e ->
    Printf.eprintf "error: %s\n" e;
    1

(* {1 wal subcommands} *)

let print_status (s : Durable.status) =
  Printf.printf "snapshot         %s (checkpoint LSN %d)\n" s.Durable.snapshot
    s.Durable.checkpoint_lsn;
  Printf.printf "next LSN         %d\n" s.Durable.next_lsn;
  Printf.printf "since checkpoint %d record(s)\n" s.Durable.since_checkpoint;
  Printf.printf "log              %d segment(s), %d byte(s)\n" s.Durable.segments
    s.Durable.log_bytes;
  if s.Durable.wal_appends > 0 then
    Printf.printf "commits          %d append(s), %d fsync(s)\n" s.Durable.wal_appends
      s.Durable.wal_fsyncs;
  match s.Durable.last_error with
  | None -> ()
  | Some e -> Printf.printf "last error       %s\n" e

let wal_status_main dir =
  match Durable.inspect ~dir with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok (s, end_) -> (
    print_status s;
    match end_ with
    | Wal.Clean ->
      print_endline "tail             clean";
      0
    | Wal.Torn msg ->
      Printf.printf "tail             torn — %s (recoverable)\n" msg;
      0
    | Wal.Corrupt msg ->
      Printf.printf "tail             CORRUPT — %s\n" msg;
      1)

let wal_checkpoint_main dir =
  match Durable.open_ ~dir () with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok (t, r) -> (
    describe_recovery r;
    match Durable.checkpoint t with
    | Error e ->
      Durable.close t;
      Printf.eprintf "error: checkpoint failed: %s\n" e;
      1
    | Ok () ->
      print_status (Durable.status t);
      Durable.close t;
      0)

let wal_recover_main dir =
  match Durable.open_ ~dir () with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok (t, r) -> (
    Printf.printf "replayed %d log record(s)%s\n" r.Durable.replayed
      (match r.Durable.wal_end with
      | Wal.Torn msg -> Printf.sprintf "; torn tail discarded (%s)" msg
      | _ -> "");
    let cert = Durable.certify t in
    print_status (Durable.status t);
    Durable.close t;
    match cert with
    | Ok () ->
      print_endline "certified: flattened and naive evaluation agree on every extent";
      0
    | Error e ->
      Printf.printf "certify FAILED: %s\n" e;
      1)

open Cmdliner

let domains_arg =
  let doc =
    "Size of the domain pool for morsel-parallel operator execution (1 = fully \
     sequential, capped at 64).  Only plan partitions the effect analysis proves \
     safe run parallel; results are identical at any setting."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

(* evaluates before the command body via [$]-application order, so the
   default pool is sized when the command runs; bound only by the
   commands that execute a plan (the REPL/-e, explain analyze, serve) *)
let domains_term =
  Term.(const (fun n -> Mirror_bat.Parkernel.set_domains n) $ domains_arg)

let eval_arg =
  let doc = "Evaluate $(docv) (a ;-separated Moa program) and exit." in
  Arg.(value & opt (some string) None & info [ "e"; "eval" ] ~docv:"PROGRAM" ~doc)

let demo_arg =
  let doc = "Preload the section-5 demo library with $(docv) synthetic images." in
  Arg.(value & opt int 0 & info [ "demo" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed for the demo corpus." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let durable_arg =
  let doc =
    "Run against the durable store in $(docv): recover it on open, journal every \
     update to its write-ahead log, checkpoint on exit."
  in
  Arg.(value & opt (some string) None & info [ "durable" ] ~docv:"DIR" ~doc)

let lint_durable_arg =
  let doc =
    "Sweep the corpus against a durable store in a temporary directory: build the \
     extent through the write-ahead log, lint, then reopen and certify the recovered \
     database."
  in
  Arg.(value & flag & info [ "durable" ] ~doc)

let wal_dir_arg =
  let doc = "The durable database directory." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)

let db_arg =
  let doc = "Analyse against the database persisted in $(docv) (defaults to the built-in corpus extent)." in
  Arg.(value & opt (some string) None & info [ "db" ] ~docv:"DIR" ~doc)

let lint_queries_arg =
  let doc = "Queries to check; with none given, the whole built-in corpus is swept." in
  Arg.(value & pos_all string [] & info [] ~docv:"QUERY" ~doc)

let explain_query_arg =
  let doc = "The query to explain." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let check_arg =
  let doc = "Also verify the bundle, run the differential checker and print each BAT's inferred property envelope." in
  Arg.(value & flag & info [ "check" ] ~doc)

let lint_json_arg =
  let doc =
    "Emit one machine-readable JSON report (schema mirror-lint/v2) with every \
     diagnostic of all four analyzer layers instead of text lines."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let lint_cmd =
  let doc =
    "statically check Moa queries (plan verifier + lint + effect analysis + resource bounds)"
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const lint_main $ db_arg $ lint_queries_arg $ lint_durable_arg $ lint_json_arg)

(* {1 wal command group} *)

let wal_status_cmd =
  let doc = "inspect a durable directory read-only: checkpoint, LSNs, log tail state" in
  Cmd.v (Cmd.info "status" ~doc) Term.(const wal_status_main $ wal_dir_arg)

let wal_checkpoint_cmd =
  let doc = "open (recovering if needed), snapshot and truncate the log" in
  Cmd.v (Cmd.info "checkpoint" ~doc) Term.(const wal_checkpoint_main $ wal_dir_arg)

let wal_recover_cmd =
  let doc = "recover a durable directory and certify the result (flattened vs naive)" in
  Cmd.v (Cmd.info "recover" ~doc) Term.(const wal_recover_main $ wal_dir_arg)

let wal_cmd =
  let doc = "durable-store utilities (subcommands: status, checkpoint, recover)" in
  Cmd.group (Cmd.info "wal" ~doc) [ wal_status_cmd; wal_checkpoint_cmd; wal_recover_cmd ]

(* {1 Daemon topic-graph lint} *)

(* The standard pipeline's external contract: topics the orchestrator
   (or a query client) publishes into the daemon set, and topics it
   consumes as progress/output signals. *)
let pipeline_roots = [ "image.new"; "annotation.new"; "collection.complete"; "query.formulate" ]
let pipeline_sinks = [ "features.ready"; "annotation.indexed"; "clustering.done"; "thesaurus.ready" ]

let daemons_lint_main () =
  let daemons = Mirror_daemon.Standard.all () in
  let diags =
    Mirror_daemon.Daemonlint.lint ~roots:pipeline_roots ~sinks:pipeline_sinks daemons
  in
  List.iter (fun d -> print_endline (Mirror_daemon.Daemonlint.diag_to_string d)) diags;
  let errs = Mirror_daemon.Daemonlint.errors diags in
  Printf.printf "%d daemon(s) checked, %d problem(s)\n" (List.length daemons)
    (List.length errs);
  if errs = [] then 0 else 1

let daemons_lint_cmd =
  let doc = "statically check the standard daemon set's topic graph" in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const daemons_lint_main $ const ())

(* {2 daemons health / deadletters / redeliver}

   Run the §5 ingest pipeline (optionally with injected faults) under
   supervision and report on it.  In process the virtual clock makes
   the whole exercise instantaneous and deterministic; with --procs N
   the daemons run in worker processes on the wall clock. *)

let parse_flaky spec =
  match String.index_opt spec ':' with
  | None -> failwith (Printf.sprintf "bad --flaky %S (expected NAME:RATE)" spec)
  | Some i -> (
    let name = String.sub spec 0 i in
    let rate = String.sub spec (i + 1) (String.length spec - i - 1) in
    match float_of_string_opt rate with
    | Some r when r >= 0.0 && r <= 1.0 -> (name, r)
    | _ -> failwith (Printf.sprintf "bad --flaky rate %S (expected 0..1)" rate))

(* Build the faulted pipeline on the chosen transport (journaled
   through [--durable DIR] when given) and run it; returns the
   orchestrator, the report and the heal switches of the broken
   daemons. *)
let run_faulted_pipeline ~images ~seed ~broken ~flaky ~procs ~durable =
  let open Mirror_daemon in
  let flaky = List.map parse_flaky flaky in
  let g = Prng.create (seed + 1) in
  let known = List.map (fun (d : Daemon.t) -> d.Daemon.name) (Standard.all ()) in
  List.iter
    (fun n ->
      if not (List.mem n known) then failwith (Printf.sprintf "unknown daemon %S" n))
    (broken @ List.map fst flaky);
  let heals = ref [] in
  let daemons =
    List.map
      (fun (d : Daemon.t) ->
        if List.mem d.Daemon.name broken then begin
          let d', heal = Faults.breakable d in
          heals := heal :: !heals;
          d'
        end
        else
          match List.assoc_opt d.Daemon.name flaky with
          | Some rate -> Faults.flaky (Prng.split g) ~rate d
          | None -> d)
      (Standard.all ())
  in
  let config = { Orchestrator.default_config with Orchestrator.procs } in
  let orch =
    match durable with
    | None -> Orchestrator.create ~daemons ~config ()
    | Some dir -> (
      let fail e = failwith (Printf.sprintf "cannot open journal %s: %s" dir e) in
      match Durable.open_ ~dir () with
      | Error e -> fail e
      | Ok (d, (_ : Durable.recovery)) -> (
        match Durable.orchestrator ~daemons ~config d with
        | Ok orch -> orch
        | Error e ->
          Durable.abandon d;
          fail e))
  in
  let scenes = Synth.corpus (Prng.create seed) ~n:images ~width:32 ~height:32 () in
  Array.iteri
    (fun i s ->
      let url = Printf.sprintf "img://%d" i in
      let annotation = Option.map (String.concat " ") s.Synth.caption in
      Orchestrator.ingest_image orch ~doc:i ~url ?annotation s.Synth.image)
    scenes;
  Orchestrator.complete_collection orch;
  let report = Orchestrator.run orch in
  (orch, report, !heals)

(* Run the faulted pipeline and hand it to the command's verdict [k];
   the workers and the journal are shut down whatever [k] returns. *)
let with_faulted_pipeline ~images ~seed ~broken ~flaky ~procs ~durable k =
  let open Mirror_daemon in
  match run_faulted_pipeline ~images ~seed ~broken ~flaky ~procs ~durable with
  | exception Failure e ->
    Printf.eprintf "error: %s\n" e;
    1
  | orch, report, heals ->
    Fun.protect ~finally:(fun () -> Orchestrator.shutdown orch) (fun () -> k orch report heals)

let print_pipeline_summary (report : Mirror_daemon.Orchestrator.report) =
  let open Mirror_daemon in
  Printf.printf
    "rounds %d, quiescent %b, pending %d, deaths %d, restarts %d, dead letters %d\n"
    report.Orchestrator.rounds report.Orchestrator.quiescent report.Orchestrator.pending
    report.Orchestrator.deaths report.Orchestrator.restarts
    (List.length report.Orchestrator.dead_letters);
  if report.Orchestrator.degraded <> [] then
    Printf.printf "degraded: %s\n" (String.concat ", " report.Orchestrator.degraded)

(* Shared health verdict: 0 healthy, 1 backlog left, 2 degraded but
   quiescent, 3 dead letters pending replay. *)
let health_exit ~quiescent ~degraded ~dead_letters =
  if not quiescent then 1
  else if dead_letters > 0 then 3
  else if degraded <> [] then 2
  else 0

let print_worker_table orch =
  let t =
    Mirror_util.Tablefmt.create
      [
        ("slot", Mirror_util.Tablefmt.Right);
        ("pid", Mirror_util.Tablefmt.Right);
        ("daemons", Mirror_util.Tablefmt.Left);
      ]
  in
  List.iter
    (fun (id, pid, hosted) ->
      Mirror_util.Tablefmt.add_row t
        [
          string_of_int id;
          (match pid with Some p -> string_of_int p | None -> "dead");
          String.concat ", " hosted;
        ])
    (Mirror_daemon.Orchestrator.workers orch);
  Mirror_util.Tablefmt.print t

let daemons_health_main images seed broken flaky procs durable =
  let open Mirror_daemon in
  with_faulted_pipeline ~images ~seed ~broken ~flaky ~procs ~durable
  @@ fun orch report _ ->
  let sup = Orchestrator.supervisor orch in
  let bus = (Orchestrator.ctx orch).Daemon.bus in
  let letters = Orchestrator.dead_letters orch in
  let t =
    Mirror_util.Tablefmt.create
      [
        ("daemon", Mirror_util.Tablefmt.Left);
        ("breaker", Mirror_util.Tablefmt.Left);
        ("handled", Mirror_util.Tablefmt.Right);
        ("failures", Mirror_util.Tablefmt.Right);
        ("queued", Mirror_util.Tablefmt.Right);
        ("dead", Mirror_util.Tablefmt.Right);
      ]
  in
  List.iter
    (fun (s : Orchestrator.daemon_stats) ->
      let name = s.Orchestrator.name in
      Mirror_util.Tablefmt.add_row t
        [
          name;
          Supervisor.state_to_string (Supervisor.state sup name);
          string_of_int s.Orchestrator.handled;
          string_of_int s.Orchestrator.failures;
          string_of_int (Bus.pending_for bus ~name);
          string_of_int
            (List.length
               (List.filter
                  (fun (e : Deadletter.entry) -> String.equal e.Deadletter.daemon name)
                  letters));
        ])
    report.Orchestrator.stats;
  Mirror_util.Tablefmt.print t;
  if procs > 0 then print_worker_table orch;
  print_pipeline_summary report;
  health_exit ~quiescent:report.Orchestrator.quiescent ~degraded:report.Orchestrator.degraded
    ~dead_letters:(List.length letters)

(* [daemons deadletters --durable DIR] inspects a crashed (or live)
   instance's delivery journal read-only — no pipeline is run. *)
let deadletters_inspect dir =
  let module Record = Mirror_store.Record in
  match Durable.deliveries ~dir with
  | Error e ->
    Printf.eprintf "error: cannot read journal %s: %s\n" dir e;
    1
  | Ok { Durable.pending; dead_letters } ->
    List.iter
      (fun (r : Record.fab_route) ->
        Printf.printf "pending  %-20s %-20s subject %-4d seq %-5d attempts %d\n"
          r.Record.daemon r.Record.topic r.Record.subject r.Record.seq
          r.Record.attempts)
      pending;
    List.iter
      (fun ((r : Record.fab_route), cause, _at) ->
        Printf.printf "dead     %-20s %-20s subject %-4d seq %-5d %s\n"
          r.Record.daemon r.Record.topic r.Record.subject r.Record.seq
          (Mirror_daemon.Deadletter.cause_to_string cause))
      dead_letters;
    Printf.printf "%d pending, %d dead letter(s) journaled\n" (List.length pending)
      (List.length dead_letters);
    if dead_letters = [] then 0 else 3

let daemons_deadletters_main images seed broken flaky procs durable =
  let open Mirror_daemon in
  match durable with
  | Some dir -> deadletters_inspect dir
  | None ->
    with_faulted_pipeline ~images ~seed ~broken ~flaky ~procs ~durable:None
    @@ fun orch report _ ->
    let letters = Orchestrator.dead_letters orch in
    List.iter
      (fun (e : Deadletter.entry) ->
        let m = e.Deadletter.delivery.Bus.message in
        Printf.printf "%-20s %-20s subject %-4d attempts %d  %s\n" e.Deadletter.daemon
          m.Bus.topic m.Bus.subject e.Deadletter.delivery.Bus.attempts
          (Deadletter.cause_to_string e.Deadletter.cause))
      letters;
    Printf.printf "%d dead letter(s)\n" (List.length letters);
    print_pipeline_summary report;
    if letters = [] then 0 else 1

let daemons_redeliver_main images seed broken flaky procs durable probe =
  let open Mirror_daemon in
  with_faulted_pipeline ~images ~seed ~broken ~flaky ~procs ~durable
  @@ fun orch report heals ->
  print_pipeline_summary report;
  List.iter (fun heal -> heal true) heals;
  let n = Orchestrator.redeliver ~probe orch in
  Printf.printf "healed %d daemon(s), redelivered %d message(s)\n" (List.length heals) n;
  let report2 = Orchestrator.run orch in
  print_pipeline_summary report2;
  let left = List.length (Orchestrator.dead_letters orch) in
  Printf.printf "%d dead letter(s) remaining\n" left;
  if report2.Orchestrator.quiescent && left = 0 then 0 else 1

let images_arg =
  let doc = "Synthetic images to ingest." in
  Arg.(value & opt int 6 & info [ "images" ] ~docv:"N" ~doc)

let fault_seed_arg =
  let doc = "Random seed for the corpus and fault injection." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let break_arg =
  let doc = "Break daemon $(docv) (always fails) for the run; repeatable." in
  Arg.(value & opt_all string [] & info [ "break" ] ~docv:"NAME" ~doc)

let flaky_arg =
  let doc = "Make daemon NAME fail with probability RATE; repeatable." in
  Arg.(value & opt_all string [] & info [ "flaky" ] ~docv:"NAME:RATE" ~doc)

let procs_arg =
  let doc =
    "Run the daemons in $(docv) forked worker processes (on the wall clock) \
     instead of in process (on a virtual clock); 0 keeps them in process."
  in
  Arg.(value & opt int 0 & info [ "procs" ] ~docv:"N" ~doc)

let fab_durable_arg =
  let doc =
    "Journal the delivery state machine and store writes through $(docv); \
     for $(b,deadletters), inspect an existing journal read-only instead of \
     running the pipeline."
  in
  Arg.(value & opt (some string) None & info [ "durable" ] ~docv:"DIR" ~doc)

let daemons_health_cmd =
  let doc = "run the ingest pipeline under supervision and show per-daemon health" in
  let man =
    [
      `S Manpage.s_exit_status;
      `P "0 — quiescent, every breaker closed, no dead letters.";
      `P "1 — a backlog is left (the pipeline never quiesced).";
      `P "2 — degraded but quiescent (an open breaker, nothing pending).";
      `P "3 — dead letters are pending replay.";
    ]
  in
  Cmd.v (Cmd.info "health" ~doc ~man)
    Term.(
      const daemons_health_main $ images_arg $ fault_seed_arg $ break_arg
      $ flaky_arg $ procs_arg $ fab_durable_arg)

let daemons_deadletters_cmd =
  let doc = "run the ingest pipeline and list the dead-letter queue with causes" in
  Cmd.v (Cmd.info "deadletters" ~doc)
    Term.(
      const daemons_deadletters_main $ images_arg $ fault_seed_arg $ break_arg
      $ flaky_arg $ procs_arg $ fab_durable_arg)

let probe_arg =
  let doc =
    "Cautious replay: re-admit the dead letters with target breakers \
     half-open (one probe each) instead of force-closed, so a \
     still-broken daemon re-trips after one failure instead of burning \
     the whole backlog."
  in
  Arg.(value & flag & info [ "probe" ] ~doc)

let daemons_redeliver_cmd =
  let doc = "run with faults, heal the broken daemons, replay the dead letters" in
  Cmd.v (Cmd.info "redeliver" ~doc)
    Term.(
      const daemons_redeliver_main $ images_arg $ fault_seed_arg $ break_arg
      $ flaky_arg $ procs_arg $ fab_durable_arg $ probe_arg)

let daemons_cmd =
  let doc = "daemon utilities (subcommands: lint, health, deadletters, redeliver)" in
  Cmd.group (Cmd.info "daemons" ~doc)
    [ daemons_lint_cmd; daemons_health_cmd; daemons_deadletters_cmd; daemons_redeliver_cmd ]

let max_bytes_arg =
  let doc =
    "Admission budget in bytes: refuse any plan whose static peak-footprint \
     envelope exceeds the budget (or is unbounded) before evaluating it."
  in
  Arg.(value & opt (some int) None & info [ "max-bytes" ] ~docv:"BYTES" ~doc)

let explain_analyze_main db src max_bytes =
  match storage_for db with
  | exception Failure e ->
    Printf.eprintf "error: %s\n" e;
    1
  | st -> (
    match Parser.parse_expr src with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok expr -> (
      match Eval.explain_analyze ?max_bytes st expr with
      | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
      | Ok text ->
        print_string text;
        0))

let explain_analyze_cmd =
  let doc =
    "execute a query under a trace: span tree with per-operator time, rows, memo hits and \
     the static resource-bound envelope vs actual footprint"
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      const (fun () -> explain_analyze_main)
      $ domains_term $ db_arg $ explain_query_arg $ max_bytes_arg)

let explain_cmd =
  let doc = "show the compiled MIL plan bundle of a query (subcommand: analyze)" in
  Cmd.group
    ~default:
      Term.(const explain_main $ check_arg $ db_arg $ explain_query_arg)
    (Cmd.info "explain" ~doc)
    [ explain_analyze_cmd ]

(* {1 serve} *)

let serve_main socket durable self_test demo seed max_sessions queue cache commit_batch
    max_bytes =
  let module Serve = Mirror_serve.Serve in
  if self_test then (
    match Serve.self_test () with
    | Ok () ->
      print_endline
        "serve self-test: OK (snapshot isolation, result cache, admission control, breaker)";
      0
    | Error e ->
      Printf.eprintf "serve self-test FAILED: %s\n" e;
      1)
  else
    match socket with
    | None ->
      Printf.eprintf "error: serve needs --socket PATH (or --self-test)\n";
      1
    | Some socket -> (
      let config =
        {
          Serve.default_config with
          Serve.max_sessions;
          Serve.queue_capacity = queue;
          Serve.cache_capacity = cache;
          Serve.commit_batch;
          Serve.max_bytes;
        }
      in
      let finish, m, dur =
        match durable with
        | None -> ((fun code -> code), Mirror.create (), None)
        | Some dir -> (
          match Durable.open_ ~dir () with
          | Error e ->
            Printf.eprintf "error: cannot open durable store %s: %s\n" dir e;
            exit 1
          | Ok (t, r) ->
            describe_recovery r;
            ((fun code -> Durable.close t; code), Durable.mirror t, Some t))
      in
      if demo > 0 then load_demo ?journal:(Option.map Durable.store_journal dur) m ~seed ~n:demo;
      let stop = ref false in
      let on_signal = Sys.Signal_handle (fun (_ : int) -> stop := true) in
      Sys.set_signal Sys.sigint on_signal;
      Sys.set_signal Sys.sigterm on_signal;
      Printf.printf "serving on %s (ctrl-C to stop)\n%!" socket;
      match Mirror_serve.Server.run ~config ?durable:dur ~stop:(fun () -> !stop) ~socket m with
      | Ok () ->
        print_endline "serve: stopped";
        finish 0
      | Error e ->
        Printf.eprintf "error: %s\n" e;
        finish 1)

let socket_arg =
  let doc = "Listen on the Unix socket at $(docv) (one connection = one session)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_self_test_arg =
  let doc =
    "Run the in-process serving self-test (snapshot isolation across a commit, cache \
     hits via query normalization, queue/budget shedding, breaker trip and recovery) \
     and exit."
  in
  Arg.(value & flag & info [ "self-test" ] ~doc)

let max_sessions_arg =
  let doc = "Concurrent session cap; further connections are refused (admission)." in
  Arg.(value & opt int 64 & info [ "max-sessions" ] ~docv:"N" ~doc)

let queue_arg =
  let doc = "Pending-request bound per session; overflow is refused, never queued." in
  Arg.(value & opt int 32 & info [ "queue" ] ~docv:"N" ~doc)

let cache_capacity_arg =
  let doc = "Result-cache entries (LRU, keyed by version and canonical query)." in
  Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N" ~doc)

let commit_batch_arg =
  let doc =
    "Group-commit batch: writes from all sessions commit together (one fsync, one new \
     snapshot version) every $(docv) writes or when the server goes idle."
  in
  Arg.(value & opt int 8 & info [ "commit-batch" ] ~docv:"N" ~doc)

let serve_cmd =
  let doc =
    "serve many concurrent sessions over one database: snapshot-isolated reads, a \
     normalized query/result cache, group-committed writes and admission control"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const (fun () -> serve_main)
      $ domains_term $ socket_arg $ durable_arg $ serve_self_test_arg $ demo_arg $ seed_arg
      $ max_sessions_arg $ queue_arg $ cache_capacity_arg $ commit_batch_arg $ max_bytes_arg)

let cmd =
  let doc = "the Mirror multimedia DBMS shell" in
  let info = Cmd.info "mirror" ~doc in
  Cmd.group
    ~default:
      Term.(const (fun () -> main) $ domains_term $ eval_arg $ demo_arg $ seed_arg $ durable_arg)
    info
    [ lint_cmd; explain_cmd; daemons_cmd; wal_cmd; serve_cmd ]

let () = exit (Cmd.eval' cmd)
