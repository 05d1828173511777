(* The Mirror benchmark: the paper's loop, end to end and layer by layer.

     mirrorbench.exe --workload ingest|search|mixed --seed N --seconds S --trace 0|1

   ingest  the §4–5 daemon pipeline into a fresh durable store (in
           process, no socket)
   search  a closed loop of 2 clients over the serve socket, mostly
           result-cache misses on a few thousand documents
   mixed   an open loop at a fixed rate over 2 connections, 80% reads
           from a cache-sized universe and 20% writes to a side extent

   With --trace 0 the run is untraced and reports the end-to-end
   metrics; with --trace 1 it also replays the same seeded inputs
   in-process under tracing and reports the per-layer metrics instead.
   The last line of standard output is one JSON object; progress goes
   to standard error.  See README.md for every metric. *)

open Mirrorbench_lib
module B = Benchstat
module Prng = Mirror_util.Prng
module Trace = Mirror_util.Trace
module Mirror = Mirror_core.Mirror
module Value = Mirror_core.Value
module Parser = Mirror_core.Parser
module Normalize = Mirror_core.Normalize
module Eval = Mirror_core.Eval
module Storage = Mirror_core.Storage
module Durable = Mirror_store.Durable
module Serve = Mirror_serve.Serve
module Server = Mirror_serve.Server
module Protocol = Mirror_serve.Protocol
module Qcache = Mirror_serve.Qcache
module Orchestrator = Mirror_daemon.Orchestrator

exception Bench_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bench_error m)) fmt
let ok what = function Ok v -> v | Error e -> fail "%s: %s" what e
let now = Unix.gettimeofday
let log fmt = Printf.eprintf (fmt ^^ "\n%!")
let say fmt = Printf.printf (fmt ^^ "\n%!")
let ( // ) = Filename.concat

(* {1 Fixed parameters}

   The flush policy is part of the workload and identical on both sides
   of any comparison: [Durable.default_config] (the WAL fsyncs every
   append) plus serve group commit at batch 8. *)

let clients = 2
let docs = 1000
let mixed_rate = 200.
let setup_rounds = 3
let client_timeout = 10.
let warmup = 2.
let replay_cap = 300
let serve_config = { Serve.default_config with Serve.commit_batch = 8 }

(* {1 Processes and files} *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (path // n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* Peak resident set of a process ([VmHWM]), in MiB. *)
let vmhwm_mb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Float.of_string kb /. 1024.
          | [] -> acc)
        | _ -> acc)
      nan (String.split_on_char '\n' s)

(* {1 The database the server workloads serve} *)

let load_db m ~seed ~side =
  ignore (ok "define Docs" (Mirror.exec_program m Gen.docs_schema));
  ignore (ok "load Docs" (Mirror.load m ~name:"Docs" (Gen.doc_rows (Prng.create seed) ~n:docs)));
  if side then begin
    ignore (ok "define Side" (Mirror.exec_program m Gen.side_schema));
    ignore (ok "load Side" (Mirror.load m ~name:"Side" (Gen.side_rows (Prng.create (seed + 1)))))
  end

let build_db ~dir ~seed ~side =
  rm_rf dir;
  let d, _ = ok "open store" (Durable.open_ ~dir ()) in
  load_db (Durable.mirror d) ~seed ~side;
  Durable.close d

let items ~side = docs + if side then Gen.side_keys else 0

(* {1 The server process}

   The benchmark re-executes itself as [--serve DIR SOCKET STATUS]: open
   the durable store, serve it on the socket until SIGTERM (or until the
   benchmark process is gone), write the peak RSS to STATUS, then drop
   the store without a checkpoint, as a crash would. *)

let serve_child dir socket status =
  let parent = Unix.getppid () in
  let d, _ = ok "open store" (Durable.open_ ~dir ()) in
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun (_ : int) -> stop := true));
  let r =
    Server.run ~config:serve_config ~durable:d
      ~stop:(fun () -> !stop || Unix.getppid () <> parent)
      ~socket (Durable.mirror d)
  in
  Out_channel.with_open_text status (fun oc -> Printf.fprintf oc "%.17g\n" (vmhwm_mb "self"));
  Durable.abandon d;
  ok "serve" r

type server = {
  pid : int;
  dir : string;
  status : string;
  conns : Client.conn list;
  mutable stopped : bool;
}

let start_server ~dir ~socket ~status =
  (try Sys.remove socket with Sys_error _ -> ());
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "--serve"; dir; socket; status |] Unix.stdin Unix.stderr
      Unix.stderr
  in
  let srv = { pid; dir; status; conns = []; stopped = false } in
  match List.init clients (fun i -> ok "connect" (Client.connect ~socket ~timeout:60. i)) with
  | conns -> { srv with conns }
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    raise e

let rec wait_exit pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when now () < deadline ->
    Unix.sleepf 0.01;
    wait_exit pid deadline
  | 0, _ ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    false
  | _, Unix.WEXITED 0 -> true
  | _, _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid deadline

(* Stop the server; returns its one-line stats, its peak RSS and whether
   it exited cleanly. *)
let stop_server srv =
  if srv.stopped then ("", nan, true)
  else begin
    srv.stopped <- true;
    let stats =
      match srv.conns with
      | c :: _ -> Option.value ~default:"" (Client.control c "stats" ~timeout:client_timeout)
      | [] -> ""
    in
    List.iter Client.close srv.conns;
    (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let clean = wait_exit srv.pid (now () +. 30.) in
    let rss =
      match In_channel.with_open_text srv.status In_channel.input_all with
      | s -> Option.value ~default:nan (float_of_string_opt (String.trim s))
      | exception Sys_error _ -> nan
    in
    (stats, rss, clean)
  end

(* Set up [setup_rounds] times (build the store, start the server,
   connect every client) and keep the last; set-up time is the median. *)
let setup_server ~work ~seed ~side =
  log "setting up %d x: %d docs into a durable store, server, %d connections" setup_rounds docs
    clients;
  let times = ref [] in
  let rec round i prev =
    Option.iter
      (fun s ->
        ignore (stop_server s);
        rm_rf s.dir)
      prev;
    let t0 = now () in
    let dir = work // Printf.sprintf "db%d" i in
    build_db ~dir ~seed ~side;
    let srv =
      start_server ~dir ~socket:(work // "s.sock")
        ~status:(work // Printf.sprintf "server%d.status" i)
    in
    times := (now () -. t0) :: !times;
    if i < setup_rounds then round (i + 1) (Some srv) else srv
  in
  let srv = round 1 None in
  (srv, B.median (Array.of_list !times))

(* {1 Results} *)

type metric = { name : string; unit_ : string; value : float }

type run = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;
}

let m name unit_ value = { name; unit_; value }
let ms s = s *. 1000.
let us s = s *. 1e6

(* One figure per line, by its long name, for a reader of the log. *)
let report_line name unit_ ?note value =
  say "  %-26s %14.4f %-9s%s" name value unit_
    (match note with Some n -> "  " ^ n | None -> "")

let latency_summary name lat =
  let n = Array.length lat in
  if n > 0 then begin
    report_line (name ^ "_p50_ms") "ms" ~note:(Printf.sprintf "n=%d" n) (ms (B.median lat));
    let t = B.tail lat in
    report_line
      (Printf.sprintf "%s_%s_ms" name t.B.label)
      "ms"
      ~note:(Printf.sprintf "n=%d, %d beyond" n t.B.beyond)
      (ms t.B.value)
  end

let quiet_note windows ~seconds (tail : B.tail) measured =
  report_line
    (Printf.sprintf "window_%s_ms" tail.B.label)
    "ms"
    ~note:(Printf.sprintf "median over the %d quiet %gs windows" (List.length windows) B.window)
    (ms tail.B.value);
  say "  (quiet: %d of %d windows; over all %d measured requests:)" (List.length windows)
    (int_of_float (seconds /. B.window)) measured

let end_to_end ~setup_s ~ops_per_s ~lat ~rss ~stored =
  [
    m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" ops_per_s;
    m "p50_ms" "ms" (ms (B.median lat));
    m "peak_rss_mb" "MiB" rss;
    m "stored_bytes_per_item" "B" stored;
  ]

(* {1 Per-layer metrics (traced run)}

   Measured from outside the program: timed calls into each layer's
   public functions, plus the spans and reports those functions already
   return.  A layer a workload does not exercise reads 0. *)

let daemons =
  [
    "segmenter"; "rgb"; "hsv"; "gabor"; "glcm"; "mrf"; "fractal"; "autoclass";
    "annotation-indexer"; "thesaurus";
  ]

(* The kernel operators that carry most of the search mix's self time. *)
let top_ops =
  [ "join"; "semijoin"; "group_rank"; "calc2"; "select_bool"; "unique_head"; "group_aggr"; "leftouterjoin" ]

let getbl_op = "foreign:contrep_getbl"

let per_layer_units =
  List.map (fun d -> ("daemon." ^ d ^ ".busy_s", "s")) daemons
  @ [
      ("daemon.deliveries", "count");
      ("daemon.rounds", "count");
      ("daemon.retries", "count");
      ("daemon.dead_letters", "count");
      ("daemon.other_s", "s");
      ("store.log_bytes", "B");
      ("store.wal_appends", "count");
      ("store.wal_fsyncs", "count");
      ("store.fsyncs_per_write", "ratio");
      ("store.wal_bytes_per_write", "ratio");
      ("store.checkpoint_ms", "ms");
      ("serve.hit_us", "us");
      ("serve.miss_ms", "ms");
      ("serve.commit_ms", "ms");
      ("serve.hit_rate", "ratio");
      ("serve.evictions", "count");
      ("serve.writes_per_batch", "ratio");
      ("serve.versions_published", "count");
      ("serve.refused", "count");
      ("serve.outside_ms", "ms");
      ("core.parse_us", "us");
      ("core.normalize_us", "us");
      ("core.typecheck_us", "us");
      ("core.optimize_us", "us");
      ("core.flatten_us", "us");
      ("core.milopt_us", "us");
      ("core.compile_share", "ratio");
      ("bat.boundcheck_us", "us");
      ("bat.execute_us", "us");
      ("bat.ops_evaluated", "count");
      ("bat.memo_hits", "count");
      ("bat.rows_per_result", "ratio");
    ]
  @ List.map (fun op -> ("bat.op." ^ op ^ ".self_us", "us")) top_ops
  @ [ ("ir.getbl.self_us", "us"); ("trace_overhead", "ratio") ]

let per_layer values =
  List.map
    (fun (name, unit_) ->
      m name unit_ (Option.value ~default:0. (Hashtbl.find_opt values name)))
    per_layer_units

let set values name v = Hashtbl.replace values name v
let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let checkpoint_ms tr =
  let spans = List.filter (fun (s : Trace.span) -> s.Trace.name = "wal.checkpoint") (Trace.roots tr) in
  ms (B.median (Array.of_list (List.map (fun (s : Trace.span) -> s.Trace.dur) spans)))

(* Per-query compile and execute phases: [Eval.query ~trace] spans. *)
type phases = {
  sums : (string, float) Hashtbl.t;  (** seconds summed per phase / "op:<name>" *)
  mutable queries : int;
  mutable evaluated : int;
  mutable memo_hits : int;
  mutable op_rows : int;
  mutable result_rows : int;
  mutable plain : float list;  (** untraced [Eval.query] seconds *)
  mutable traced : float list;
}

let new_phases () =
  {
    sums = Hashtbl.create 32;
    queries = 0;
    evaluated = 0;
    memo_hits = 0;
    op_rows = 0;
    result_rows = 0;
    plain = [];
    traced = [];
  }

let result_rows = function
  | Value.VSet l -> List.length l
  | Value.Xv { items; _ } -> List.length items
  | Value.Atom _ | Value.Tup _ -> 1

let compile_phases = [ "typecheck"; "optimize"; "flatten.compile"; "milopt"; "boundcheck" ]

let profile_query ph st src =
  let expr, t_parse = time (fun () -> ok "parse" (Parser.parse_expr src)) in
  let (_ : string), t_norm = time (fun () -> Normalize.key expr) in
  add ph.sums "parse" t_parse;
  add ph.sums "normalize" t_norm;
  let (_ : Eval.report), t_plain = time (fun () -> ok "query" (Eval.query st expr)) in
  let tr = Trace.create () in
  let report, t_traced = time (fun () -> ok "query" (Eval.query ~trace:tr st expr)) in
  ph.plain <- t_plain :: ph.plain;
  ph.traced <- t_traced :: ph.traced;
  ph.queries <- ph.queries + 1;
  ph.evaluated <- ph.evaluated + report.Eval.evaluated;
  ph.memo_hits <- ph.memo_hits + report.Eval.memo_hits;
  ph.result_rows <- ph.result_rows + result_rows report.Eval.value;
  List.iter
    (fun (sp : Trace.span) ->
      add ph.sums sp.Trace.name sp.Trace.dur;
      if sp.Trace.name = "execute" then
        (* operator spans; memo hits are zero-time events, not work *)
        ignore
          (Trace.fold
             (fun () (s : Trace.span) ->
               if s != sp && not (List.mem_assoc "memo" s.Trace.attrs) then begin
                 add ph.sums ("op:" ^ s.Trace.name) (Trace.self_seconds s);
                 ph.op_rows <- ph.op_rows + Option.value ~default:0 s.Trace.rows
               end)
             () sp))
    (Trace.roots tr)

let phase_metrics values ph =
  if ph.queries > 0 then begin
    let q = Float.of_int ph.queries in
    let mean k = Option.value ~default:0. (Hashtbl.find_opt ph.sums k) /. q in
    List.iter
      (fun (name, phase) -> set values name (us (mean phase)))
      [
        ("core.parse_us", "parse");
        ("core.normalize_us", "normalize");
        ("core.typecheck_us", "typecheck");
        ("core.optimize_us", "optimize");
        ("core.flatten_us", "flatten.compile");
        ("core.milopt_us", "milopt");
        ("bat.boundcheck_us", "boundcheck");
        ("bat.execute_us", "execute");
        ("ir.getbl.self_us", "op:" ^ getbl_op);
      ];
    List.iter (fun op -> set values ("bat.op." ^ op ^ ".self_us") (us (mean ("op:" ^ op)))) top_ops;
    let ops =
      Hashtbl.fold
        (fun k v acc ->
          if String.starts_with ~prefix:"op:" k then (String.sub k 3 (String.length k - 3), v) :: acc
          else acc)
        ph.sums []
    in
    say "  top operators by self time per query (us): %s"
      (String.concat ", "
         (List.filteri
            (fun i _ -> i < 10)
            (List.map
               (fun (k, v) -> Printf.sprintf "%s %.1f" k (us (v /. q)))
               (List.sort (fun (_, a) (_, b) -> Float.compare b a) ops))));
    let compile = List.fold_left (fun acc p -> acc +. mean p) 0. compile_phases in
    set values "core.compile_share" (compile /. (compile +. mean "execute"));
    set values "bat.ops_evaluated" (Float.of_int ph.evaluated /. q);
    set values "bat.memo_hits" (Float.of_int ph.memo_hits /. q);
    set values "bat.rows_per_result"
      (Float.of_int ph.op_rows /. Float.of_int (max 1 ph.result_rows));
    set values "trace_overhead"
      (B.median (Array.of_list ph.traced) /. B.median (Array.of_list ph.plain))
  end

(* Replay a request stream in-process through [Serve.local] on a store
   built exactly as the server's was: every [Serve.step] is timed and
   classified by what it delivered (cached hit, evaluated miss, group
   commit), and every read is profiled phase by phase on the live
   state.  Returns the median read-step time. *)
let replay values ~work ~seed ~side requests =
  log "traced replay of %d requests in process" (List.length requests);
  let dir = work // "replay" in
  build_db ~dir ~seed ~side;
  let d, _ = ok "open store" (Durable.open_ ~dir ()) in
  let tr = Trace.create () in
  Durable.set_trace d tr;
  let mir = Durable.mirror d in
  let srv = Serve.local ~config:serve_config ~durable:d mir in
  let session () =
    match Serve.open_session srv with
    | Ok s -> s
    | Error e -> fail "session: %s" (Serve.error_to_string e)
  in
  let sessions = Array.init clients (fun _ -> session ()) in
  let st0 = Durable.status d in
  let ph = new_phases () in
  let hits = ref [] and misses = ref [] and commits = ref [] in
  let stmt_bytes = ref 0 in
  List.iter
    (fun (c, req) ->
      let r =
        match req with
        | Gen.Read q -> Serve.Query q
        | Gen.Write { program; _ } ->
          stmt_bytes := !stmt_bytes + String.length program;
          Serve.Exec program
      in
      ignore (Serve.submit srv sessions.(c) r : (int, Serve.error) result);
      let rec pump () =
        let t0 = now () in
        if Serve.step srv then begin
          let dt = now () -. t0 in
          let delivered = List.concat_map Serve.replies (Array.to_list sessions) in
          (match delivered with
          | (_, Ok (Serve.Value { cached = true; _ })) :: _ -> hits := dt :: !hits
          | (_, Ok (Serve.Value { cached = false; _ })) :: _ -> misses := dt :: !misses
          | (_, Ok (Serve.Executed _)) :: _ -> commits := dt :: !commits
          | _ -> ());
          pump ()
        end
      in
      pump ();
      match req with Gen.Read q -> profile_query ph (Mirror.storage mir) q | Gen.Write _ -> ())
    requests;
  let st1 = Durable.status d in
  let stats = Serve.stats srv in
  Durable.close d;
  let med l = B.median (Array.of_list l) in
  let or0 v = if Float.is_nan v then 0. else v in
  set values "serve.hit_us" (or0 (us (med !hits)));
  set values "serve.miss_ms" (or0 (ms (med !misses)));
  set values "serve.commit_ms" (or0 (ms (med !commits)));
  set values "serve.hit_rate" (Qcache.hit_rate stats.Serve.cache);
  set values "serve.evictions" (Float.of_int stats.Serve.cache.Qcache.evictions);
  set values "serve.writes_per_batch"
    (if stats.Serve.batches = 0 then 0.
     else Float.of_int stats.Serve.writes /. Float.of_int stats.Serve.batches);
  set values "serve.versions_published" (Float.of_int stats.Serve.versions_published);
  set values "serve.refused" (Float.of_int stats.Serve.refused);
  let appends = st1.Durable.wal_appends - st0.Durable.wal_appends in
  let fsyncs = st1.Durable.wal_fsyncs - st0.Durable.wal_fsyncs in
  set values "store.log_bytes" (Float.of_int st1.Durable.log_bytes);
  set values "store.wal_appends" (Float.of_int appends);
  set values "store.wal_fsyncs" (Float.of_int fsyncs);
  if stats.Serve.writes > 0 then begin
    set values "store.fsyncs_per_write"
      (Float.of_int fsyncs /. Float.of_int stats.Serve.writes);
    set values "store.wal_bytes_per_write"
      (Float.of_int (st1.Durable.log_bytes - st0.Durable.log_bytes) /. Float.of_int !stmt_bytes)
  end;
  set values "store.checkpoint_ms" (or0 (checkpoint_ms tr));
  phase_metrics values ph;
  med (!hits @ !misses)

(* {1 ingest} *)

let ingest ~work ~seed ~seconds ~traced =
  let n = Gen.corpus_images in
  let setups = ref [] and builds = ref [] and bytes = ref [] in
  let deliveries = ref 0 and failed = ref 0 and problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let until = ref infinity in
  (* build 1 warms the heap up and is not timed; then at least three
     timed builds, and more until [seconds] have passed *)
  let rec loop i =
    let t0 = now () in
    let scenes = Gen.corpus ~seed in
    let dir = work // Printf.sprintf "ingest%d" i in
    let d, _ = ok "open store" (Durable.open_ ~dir ()) in
    let t1 = now () in
    let report =
      ok "build"
        (Mirror.build_image_library (Durable.mirror d) ~journal:(Durable.store_journal d) ~scenes ())
    in
    let size = Mirror.library_size (Durable.mirror d) in
    Durable.close d;
    let t2 = now () in
    setups := (t1 -. t0) :: !setups;
    if i = 1 then until := t2 +. seconds else builds := (t2 -. t1) :: !builds;
    bytes := Float.of_int (B.disk_bytes dir) :: !bytes;
    let stats = report.Orchestrator.stats in
    let dead = List.length report.Orchestrator.dead_letters in
    let failures = List.fold_left (fun acc s -> acc + s.Orchestrator.failures) 0 stats in
    deliveries :=
      !deliveries
      + List.fold_left (fun acc s -> acc + s.Orchestrator.handled + s.Orchestrator.failures) 0 stats;
    failed := !failed + failures + dead;
    if not report.Orchestrator.quiescent then problem "build %d not quiescent" i;
    if dead > 0 then problem "build %d: %d dead letters" i dead;
    if size <> n then problem "build %d: library holds %d of %d images" i size n;
    if i >= 4 && now () >= !until then (dir, scenes)
    else begin
      rm_rf dir;
      loop (i + 1)
    end
  in
  let dir, scenes = loop 1 in
  (* the last build must survive a reopen and certify *)
  let d, _ = ok "reopen" (Durable.open_ ~dir ()) in
  (match Durable.certify d with Ok () -> () | Error e -> problem "certify after reopen: %s" e);
  let stored = Storage.extent_count (Durable.storage d) "ImageLibraryInternal" in
  if stored <> n then problem "reopened library holds %d of %d images" stored n;
  Durable.close d;
  let all_builds = Array.of_list !builds in
  let builds = B.quiet_times all_builds in
  let build_s = B.median builds in
  let images_per_s = Float.of_int n /. build_s in
  let per_image = B.median (Array.of_list !bytes) /. Float.of_int n in
  let rss = vmhwm_mb "self" in
  let setup_s = B.median (Array.of_list !setups) in
  let tally = { B.attempted = !deliveries; failed = !failed } in
  say "ingest: %d images of 48x48, %d timed builds into fresh durable stores, the faster %d kept"
    n (Array.length all_builds) (Array.length builds);
  report_line "setup_s" "s" setup_s;
  report_line "images_per_s" "images/s" images_per_s;
  latency_summary "build" builds;
  report_line "stored_bytes_per_image" "B" per_image;
  report_line "failed_share" "fraction" (B.failed_share tally);
  report_line "peak_rss_mb" "MiB" rss;
  List.iter (fun p -> say "  MISMATCH %s" p) (List.rev !problems);
  let values = Hashtbl.create 64 in
  if traced then begin
    let dir = work // "traced" in
    let d, _ = ok "open store" (Durable.open_ ~dir ()) in
    let tr = Trace.create () in
    Durable.set_trace d tr;
    let report, wall =
      time (fun () ->
          ok "build"
            (Mirror.build_image_library (Durable.mirror d) ~journal:(Durable.store_journal d)
               ~scenes ()))
    in
    let st = Durable.status d in
    let (), close_s = time (fun () -> Durable.close d) in
    let stats = report.Orchestrator.stats in
    let busy = ref 0. in
    List.iter
      (fun s ->
        let name = s.Orchestrator.name in
        let name =
          if String.starts_with ~prefix:"feature:" name then
            String.sub name 8 (String.length name - 8)
          else name
        in
        busy := !busy +. s.Orchestrator.cpu_seconds;
        if List.mem name daemons then set values ("daemon." ^ name ^ ".busy_s") s.Orchestrator.cpu_seconds)
      stats;
    let sum f = Float.of_int (List.fold_left (fun acc s -> acc + f s) 0 stats) in
    set values "daemon.deliveries" (sum (fun s -> s.Orchestrator.handled + s.Orchestrator.failures));
    set values "daemon.retries" (sum (fun s -> s.Orchestrator.failures));
    set values "daemon.rounds" (Float.of_int report.Orchestrator.rounds);
    set values "daemon.dead_letters" (Float.of_int (List.length report.Orchestrator.dead_letters));
    set values "daemon.other_s" (wall -. !busy);
    set values "store.log_bytes" (Float.of_int st.Durable.log_bytes);
    set values "store.wal_appends" (Float.of_int st.Durable.wal_appends);
    set values "store.wal_fsyncs" (Float.of_int st.Durable.wal_fsyncs);
    set values "store.checkpoint_ms" (checkpoint_ms tr);
    set values "trace_overhead" ((wall +. close_s) /. build_s);
    say "  traced build: %.3f s wall = %.3f s daemon busy + %.3f s other" wall !busy (wall -. !busy)
  end;
  {
    correct = !problems = [];
    attempted = tally.B.attempted;
    failed = tally.B.failed;
    end_to_end =
      end_to_end ~setup_s ~ops_per_s:images_per_s ~lat:builds ~rss ~stored:per_image;
    per_layer = per_layer values;
  }

(* {1 search} *)

let search ~work ~seed ~seconds ~traced =
  let srv, setup_s = setup_server ~work ~seed ~side:false in
  let replies, t0, (stats, rss, clean) =
    Fun.protect
      ~finally:(fun () -> ignore (stop_server srv))
      (fun () ->
        let gens =
          Array.init clients (fun c ->
              Gen.stream ~seed ~client:c ~cards:Gen.search_cards Gen.search_query)
        in
        let count = Array.make clients 0 in
        let sent = Hashtbl.create 4096 in
        let next c =
          let tag = count.(c) in
          count.(c) <- tag + 1;
          let q = gens.(c) () in
          Hashtbl.replace sent (c, tag) q;
          (tag, "query " ^ q)
        in
        let t0 = now () +. warmup in
        let replies =
          Client.closed_loop srv.conns ~next ~until:(t0 +. seconds) ~timeout:client_timeout
        in
        (List.map (fun r -> (r, Hashtbl.find sent (r.Client.client, r.Client.tag))) replies, t0,
         stop_server srv))
  in
  let per_doc = B.bytes_per_item ~bytes:(B.disk_bytes srv.dir) ~items:(items ~side:false) in
  (* every reply against the same query on an in-process database built
     from the same seed *)
  let reference = Mirror.create () in
  load_db reference ~seed ~side:false;
  let expected = Hashtbl.create 1024 in
  let digest_of q =
    match Hashtbl.find_opt expected q with
    | Some dg -> dg
    | None ->
      let v = ok q (Eval.query_value (Mirror.storage reference) (ok q (Parser.parse_expr q))) in
      let dg = Digest.string (Protocol.escape (Value.to_string v)) in
      Hashtbl.replace expected q dg;
      dg
  in
  let mismatches =
    List.filter
      (fun ((r : Client.reply), q) ->
        r.Client.record.B.outcome = B.Ok_reply && r.Client.digest <> digest_of q)
      replies
  in
  let recs = List.map (fun ((r : Client.reply), _) -> r.Client.record) replies in
  let tally = B.tally recs in
  (* the first [warmup] seconds fill the heap and caches, unmeasured *)
  let measured = List.filter (fun r -> r.B.due >= t0) recs in
  let windows = B.quiet ~record:Fun.id ~limit:client_timeout ~from:t0 ~seconds measured in
  let quiet = List.concat windows in
  let completed = List.filter (fun r -> not (B.failed r.B.outcome)) quiet in
  let rps =
    B.rate ~count:(List.length completed)
      ~seconds:(B.window *. Float.of_int (List.length windows))
  in
  let lat = B.latencies ~limit:client_timeout quiet in
  let tail = B.window_tail ~limit:client_timeout windows in
  say "search: %d docs, closed loop over %d connections, %d requests, %d distinct" docs clients
    tally.B.attempted (Hashtbl.length expected);
  report_line "setup_s" "s" setup_s;
  report_line "rps" "req/s" rps;
  latency_summary "read" lat;
  quiet_note windows ~seconds tail (List.length measured);
  latency_summary "  read" (B.latencies ~limit:client_timeout measured);
  report_line "failed_share" "fraction" (B.failed_share tally);
  report_line "peak_rss_mb" "MiB" rss;
  report_line "stored_bytes_per_doc" "B" per_doc;
  say "  server %s" stats;
  List.iter
    (fun (_, q) -> say "  MISMATCH %s" q)
    (List.filteri (fun i _ -> i < 5) mismatches);
  let values = Hashtbl.create 64 in
  if traced then begin
    let sent ((r : Client.reply), _) = r.Client.record.B.sent in
    let order = List.sort (fun a b -> Float.compare (sent a) (sent b)) replies in
    let requests =
      List.filteri
        (fun i _ -> i < replay_cap)
        (List.map (fun ((r : Client.reply), q) -> (r.Client.client, Gen.Read q)) order)
    in
    let step = replay values ~work ~seed ~side:false requests in
    set values "serve.outside_ms" (ms (B.median lat -. step))
  end;
  {
    correct = mismatches = [] && clean;
    attempted = tally.B.attempted;
    failed = tally.B.failed;
    end_to_end = end_to_end ~setup_s ~ops_per_s:rps ~lat ~rss ~stored:per_doc;
    per_layer = per_layer values;
  }

(* {1 mixed} *)

let mixed ~work ~seed ~seconds ~traced =
  let srv, setup_s = setup_server ~work ~seed ~side:true in
  let gens =
    Array.init clients (fun c ->
        Gen.stream ~seed ~client:c ~cards:Gen.mixed_cards (Gen.mixed_request ~client:c ~clients))
  in
  let n = int_of_float (mixed_rate *. (warmup +. seconds)) in
  let counts = Array.make clients 0 in
  let requests =
    Array.init n (fun i ->
        let c = i mod clients in
        let tag = counts.(c) in
        counts.(c) <- tag + 1;
        (Float.of_int i /. mixed_rate, c, tag, gens.(c) ()))
  in
  let request = Hashtbl.create n in
  Array.iter (fun (_, c, tag, req) -> Hashtbl.replace request (c, tag) req) requests;
  let start = now () +. 0.01 in
  let replies, (stats, rss, clean) =
    Fun.protect
      ~finally:(fun () -> ignore (stop_server srv))
      (fun () ->
        let schedule = Array.map (fun (due, c, tag, req) -> (due, c, tag, Gen.line req)) requests in
        let replies = Client.open_loop srv.conns ~schedule ~start ~timeout:client_timeout in
        (replies, stop_server srv))
  in
  let per_item = B.bytes_per_item ~bytes:(B.disk_bytes srv.dir) ~items:(items ~side:true) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if not clean then problem "server did not exit cleanly";
  (* durability: the store the server dropped without a checkpoint must
     recover to the sequential replay of every acknowledged write *)
  let expected = Hashtbl.create 64 in
  List.iter
    (function
      | Value.Tup [ ("k", k); ("v", v) ] ->
        Hashtbl.replace expected (Value.to_string k) (Value.to_string v)
      | _ -> ())
    (Gen.side_rows (Prng.create (seed + 1)));
  let by_order =
    List.sort
      (fun (a : Client.reply) (b : Client.reply) ->
        compare (a.Client.client, a.Client.tag) (b.Client.client, b.Client.tag))
      replies
  in
  let writes = ref 0 in
  List.iter
    (fun (r : Client.reply) ->
      match Hashtbl.find request (r.Client.client, r.Client.tag) with
      | Gen.Write { key; value; _ } ->
        incr writes;
        if r.Client.record.B.outcome = B.Ok_reply then
          Hashtbl.replace expected (string_of_int key) (string_of_int value)
        else problem "write %d/%d failed, its effect is unknown" r.Client.client r.Client.tag
      | Gen.Read _ -> ())
    by_order;
  let d, recovery = ok "reopen" (Durable.open_ ~dir:srv.dir ()) in
  let rows =
    List.filter_map
      (function
        | Value.Tup [ ("k", k); ("v", v) ] -> Some (Value.to_string k, Value.to_string v)
        | _ -> None)
      (Option.value ~default:[] (Storage.extent_rows (Durable.storage d) "Side"))
  in
  let sort = List.sort compare in
  let want = sort (Hashtbl.fold (fun k v acc -> (k, v) :: acc) expected []) in
  if sort rows <> want then
    problem "recovered Side (%d rows) differs from the replay of acknowledged writes (%d rows)"
      (List.length rows) (List.length want);
  (match Durable.certify d with Ok () -> () | Error e -> problem "certify after reopen: %s" e);
  Durable.close d;
  (* the first [warmup] seconds of the schedule fill the heap and
     caches, unmeasured *)
  let tally = B.tally (List.map (fun (r : Client.reply) -> r.Client.record) replies) in
  let t0 = start +. warmup in
  let replies = List.filter (fun (r : Client.reply) -> r.Client.record.B.due >= t0) replies in
  let recs = List.map (fun (r : Client.reply) -> r.Client.record) replies in
  let is_write (r : Client.reply) =
    match Hashtbl.find request (r.Client.client, r.Client.tag) with
    | Gen.Write _ -> true
    | Gen.Read _ -> false
  in
  let windows =
    B.quiet ~record:(fun (r : Client.reply) -> r.Client.record) ~limit:client_timeout ~from:t0
      ~seconds replies
  in
  let quiet = List.concat windows in
  let reads, writes_r = List.partition (fun r -> not (is_write r)) quiet in
  let recs_of = List.map (fun (r : Client.reply) -> r.Client.record) in
  let completed = List.filter (fun r -> not (B.failed r.B.outcome)) recs in
  let last = List.fold_left (fun acc r -> Float.max acc r.B.done_) t0 completed in
  let rps = B.rate ~count:(List.length completed) ~seconds:(last -. t0) in
  let lat = B.latencies ~limit:client_timeout (recs_of quiet) in
  let tail = B.window_tail ~limit:client_timeout (List.map recs_of windows) in
  let read_recs = recs_of reads in
  let late = Array.of_list (List.map B.lateness recs) in
  say "mixed: %d docs + %d side rows, open loop at %g req/s over %d connections, %d requests \
       (%d writes), %d records redone on reopen"
    docs Gen.side_keys mixed_rate clients tally.B.attempted !writes recovery.Durable.replayed;
  report_line "setup_s" "s" setup_s;
  report_line "rps" "req/s" rps;
  let latencies = B.latencies ~limit:client_timeout in
  latency_summary "read" (latencies read_recs);
  latency_summary "write" (latencies (recs_of writes_r));
  latency_summary "all" lat;
  quiet_note windows ~seconds tail (List.length recs);
  latency_summary "  all" (latencies recs);
  report_line "generator_late_p50_ms" "ms" (ms (B.median late));
  report_line "generator_late_max_ms" "ms" (ms (Array.fold_left Float.max 0. late));
  report_line "failed_share" "fraction" (B.failed_share tally);
  report_line "peak_rss_mb" "MiB" rss;
  report_line "stored_bytes_per_item" "B" per_item;
  say "  server %s" stats;
  List.iter (fun p -> say "  MISMATCH %s" p) (List.rev !problems);
  let values = Hashtbl.create 64 in
  if traced then begin
    let step =
      replay values ~work ~seed ~side:true
        (Array.to_list (Array.map (fun (_, c, _, req) -> (c, req)) requests))
    in
    set values "serve.outside_ms"
      (ms (B.median (B.latencies ~limit:client_timeout read_recs) -. step))
  end;
  {
    correct = !problems = [];
    attempted = tally.B.attempted;
    failed = tally.B.failed;
    end_to_end = end_to_end ~setup_s ~ops_per_s:rps ~lat ~rss ~stored:per_item;
    per_layer = per_layer values;
  }

(* {1 Command line} *)

let json_line r ~traced =
  let metric x =
    if not (Float.is_finite x.value) then fail "metric %s is not a number" x.name;
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    (max 1 r.attempted) r.failed
    (String.concat ", " (List.map metric (if traced then r.per_layer else r.end_to_end)))

let usage () =
  prerr_endline
    "usage: mirrorbench --workload ingest|search|mixed --seed N --seconds S --trace 0|1";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "--serve"; dir; socket; status ] -> (
    try serve_child dir socket status
    with Bench_error e ->
      prerr_endline ("server: " ^ e);
      exit 2)
  | _ :: args -> (
    let rec parse acc = function
      | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let opt k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (opt k) with Some v -> v | None -> usage () in
    let seed = int "seed" and seconds = Float.of_int (int "seconds") in
    let traced = match opt "trace" with "0" -> false | "1" -> true | _ -> usage () in
    let run =
      match opt "workload" with
      | "ingest" -> ingest
      | "search" -> search
      | "mixed" -> mixed
      | _ -> usage ()
    in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* an interrupted run still stops its server and removes its files *)
    Sys.catch_break true;
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun (_ : int) -> raise Sys.Break));
    let work = ".mirrorbench" // Printf.sprintf "run-%d" (Unix.getpid ()) in
    mkdir_p work;
    match
      Fun.protect
        ~finally:(fun () ->
          rm_rf work;
          try Unix.rmdir ".mirrorbench" with Unix.Unix_error _ -> ())
        (fun () -> run ~work ~seed ~seconds ~traced)
    with
    | r ->
      print_endline (json_line r ~traced);
      exit (if r.correct then 0 else 1)
    | exception Bench_error e ->
      prerr_endline ("mirrorbench: " ^ e);
      exit 1
    | exception Sys.Break ->
      prerr_endline "mirrorbench: interrupted";
      exit 130)
  | [] -> usage ()
