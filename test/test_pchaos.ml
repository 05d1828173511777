(* Seeded chaos for the delivery engine, over both transports.

   Each schedule wraps the standard daemon set in a random mix of
   faults — flaky failure rates, outage windows that last until the
   harness heals them, and one-shot process crashes — and, with worker
   processes, also SIGKILLs live workers at early rounds.  It drives
   the full ingest pipeline and checks three invariants:

   (a) accounting: every delivery enqueued for a daemon is eventually
       handled, dead-lettered with a cause, or still pending — queued
       or in flight (nothing vanishes);
   (b) honesty: a run either reaches quiescence or reports a positive
       backlog (never "quiescent" with work outstanding);
   (c) convergence: once the faults are healed and the dead letters
       redelivered, the store equals the failure-free run's store.

   In process everything is deterministic (a virtual clock, seeded
   Prngs), so a failing schedule is reproducible by its seed alone.
   The process suite adds a fourth invariant: after an orchestrator
   crash at an armed journal crash point, the recovered pending /
   dead-letter state is exactly the journaled one.  It is POSIX-only
   (fork/pipes/signals) and runs a 50-seed slice; set
   MIRROR_PCHAOS_FULL=1 for all 500, as `dune build @bench-smoke`
   does. *)

module Prng = Mirror_util.Prng
module Synth = Mirror_mm.Synth
module Bus = Mirror_daemon.Bus
module Daemon = Mirror_daemon.Daemon
module Media = Mirror_daemon.Media
module Store = Mirror_daemon.Store
module Standard = Mirror_daemon.Standard
module Faults = Mirror_daemon.Faults
module Supervisor = Mirror_daemon.Supervisor
module Deadletter = Mirror_daemon.Deadletter
module Orchestrator = Mirror_daemon.Orchestrator
module Dictionary = Mirror_daemon.Dictionary
module Durable = Mirror_store.Durable

let posix = Sys.unix
let schedules = 500

let process_schedules =
  match Sys.getenv_opt "MIRROR_PCHAOS_FULL" with Some _ -> 500 | None -> 50

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* Open (or recover) the durable store in [dir] and build the
   orchestrator that journals through it. *)
let open_durable ?daemons ?(checkpoint_every = 0) ~config ?seed ~dir () =
  let config' = { Durable.default_config with Durable.checkpoint_every } in
  let d, (_ : Durable.recovery) = ok (Durable.open_ ~config:config' ~dir ()) in
  (ok (Durable.orchestrator ?daemons ~config ?seed d), d)

let with_temp_dir f =
  let dir = Filename.temp_file "mirror-pchaos" ".db" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> Mirror_util.Fsx.rm_rf dir) (fun () -> f dir)

(* In process: the default configuration on its virtual clock.  Worker
   processes run on the wall clock, so they get small real-time
   windows: a killed worker's breaker reopens in milliseconds and a
   stranded backlog expires in a couple of seconds, so a schedule stays
   fast without ever sleeping in the test. *)
let config procs =
  if procs = 0 then Orchestrator.default_config
  else
    {
      Orchestrator.default_config with
      procs;
      ttl = 2.0;
      breaker =
        {
          Supervisor.failure_threshold = 3;
          base_backoff = 0.004;
          max_backoff = 0.05;
          jitter = 0.2;
        };
    }

(* One tiny corpus shared by every schedule: the suite exercises
   supervision, not the media pipeline, so the images are as small as
   the daemons accept. *)
let scenes =
  Synth.corpus (Prng.create 97) ~n:2 ~width:16 ~height:16 ~annotated_fraction:0.8 ()

let url_of i = Printf.sprintf "chaos://%d" i

let ingest orch =
  Array.iteri
    (fun i (s : Synth.scene) ->
      let annotation = Option.map (String.concat " ") s.Synth.caption in
      Orchestrator.ingest_image orch ~doc:i ~url:(url_of i) ?annotation s.Synth.image)
    scenes;
  Orchestrator.complete_collection orch

(* The media server is a separate party in the architecture — footage
   is not part of the metadata journal.  After an orchestrator crash
   the harness plays that party and re-serves the footage. *)
let reingest_media orch =
  let media = (Orchestrator.ctx orch).Daemon.media in
  Array.iteri (fun i (s : Synth.scene) -> Media.put media ~url:(url_of i) s.Synth.image) scenes

let digest orch =
  let store = (Orchestrator.ctx orch).Daemon.store in
  let per_doc =
    List.map
      (fun doc ->
        ( doc,
          Option.map List.length (Store.segments store ~doc),
          Store.text store ~doc,
          List.sort compare (Store.visual_words store ~doc) ))
      (Store.docs store)
  in
  (per_doc, Store.clustered_spaces store, Store.thesaurus store)

(* Run to completion, restarting after in-process handler crashes
   (orchestrator state survives a Faults.Crash; re-running resumes). *)
let run_with_restarts orch =
  let rec attempt n =
    match Orchestrator.run orch with
    | report -> report
    | exception Faults.Crash _ when n < 20 -> attempt (n + 1)
  in
  attempt 0

(* Every extent's schema history in the data dictionary. *)
let dictionary orch =
  let dict = (Orchestrator.ctx orch).Daemon.dict in
  List.map (fun name -> (name, Dictionary.history dict name)) (Dictionary.extents dict)

let baseline =
  lazy
    (let orch = Orchestrator.create () in
     ingest orch;
     assert (run_with_restarts orch).Orchestrator.quiescent;
     digest orch)

(* Invariant (a): per daemon, deliveries in = handled + dead + live
   pending (queued or in flight). *)
let check_accounting ~seed orch (report : Orchestrator.report) =
  let bus = (Orchestrator.ctx orch).Daemon.bus in
  let live_pending, _ = Orchestrator.state_keys orch in
  List.iter
    (fun (s : Orchestrator.daemon_stats) ->
      let name = s.Orchestrator.name in
      let delivered = Bus.delivered_to bus ~name in
      let dead =
        List.length
          (List.filter
             (fun (e : Deadletter.entry) -> e.Deadletter.daemon = name)
             (Orchestrator.dead_letters orch))
      in
      let pending = List.length (List.filter (fun (n, _) -> n = name) live_pending) in
      if delivered <> s.Orchestrator.handled + dead + pending then
        Alcotest.failf
          "schedule %d: %s loses deliveries: %d in <> %d handled + %d dead + %d pending"
          seed name delivered s.Orchestrator.handled dead pending)
    report.Orchestrator.stats

(* Invariant (b). *)
let check_honesty ~seed (report : Orchestrator.report) =
  if report.Orchestrator.quiescent && report.Orchestrator.pending > 0 then
    Alcotest.failf "schedule %d: claims quiescence with %d pending" seed
      report.Orchestrator.pending;
  if (not report.Orchestrator.quiescent) && report.Orchestrator.pending = 0 then
    Alcotest.failf "schedule %d: claims a backlog it does not have" seed

(* Heal and drain: redeliver dead letters and re-run until clean.
   Without [probing], up to 11 force-closing redeliver+run passes.
   With [probing], one plain run first (a worker death may still hold
   work back), then up to 13 passes that re-admit dead letters through
   a half-open probe on even seeds and force-close on odd ones. *)
let recover_to_convergence ~probing ~seed orch =
  let clean (r : Orchestrator.report) =
    r.Orchestrator.quiescent && Orchestrator.dead_letters orch = []
  in
  let probe = probing && seed mod 2 = 0 in
  let passes = if probing then 13 else 11 in
  let rec go n =
    ignore (Orchestrator.redeliver ~probe orch);
    let r = run_with_restarts orch in
    if n + 1 < passes && not (clean r) then go (n + 1) else r
  in
  let final =
    if not probing then go 0
    else
      let r = run_with_restarts orch in
      if clean r then r else go 0
  in
  if not final.Orchestrator.quiescent then
    Alcotest.failf "schedule %d: never quiesced after healing" seed;
  if Orchestrator.dead_letters orch <> [] then
    Alcotest.failf "schedule %d: dead letters survived redelivery" seed;
  final

(* {1 The schedule generator} *)

type schedule = {
  daemons : Daemon.t list;
  healed : bool ref;  (* every fault is transient with respect to it *)
  procs : int;
  kills : (int * int) list;  (* (round, worker slot) SIGKILLs *)
}

let schedule ~processes seed =
  let g = Prng.create (0x5EED + (seed * 7919)) in
  let healed = ref false in
  let crashes = ref 0 in
  let daemons =
    List.map
      (fun (d : Daemon.t) ->
        match Prng.int g 5 with
        | 0 ->
          let rate = 0.2 +. Prng.float g 0.6 in
          let gd = Prng.split g in
          Faults.switched (fun () -> (not !healed) && Prng.float gd 1.0 < rate) d
        | 1 -> Faults.switched (fun () -> not !healed) d
        | 2 when !crashes < 2 ->
          (* one-shot process death partway through *)
          incr crashes;
          Faults.crashing ~at_call:(1 + Prng.int g 3) d
        | _ -> d)
      (Standard.all ())
  in
  if not processes then { daemons; healed; procs = 0; kills = [] }
  else
    let procs = 2 + Prng.int g 2 in
    let kills = List.init (1 + Prng.int g 3) (fun _ -> (2 + Prng.int g 12, Prng.int g procs)) in
    { daemons; healed; procs; kills }

let run_schedule ~processes seed =
  let s = schedule ~processes seed in
  let orch = Orchestrator.create ~daemons:s.daemons ~config:(config s.procs) () in
  ingest orch;
  Orchestrator.set_tick_hook orch
    (Some
       (fun round ->
         List.iter
           (fun (at, slot) -> if round = at then ignore (Orchestrator.kill_worker orch slot))
           s.kills));
  let report = run_with_restarts orch in
  Orchestrator.set_tick_hook orch None;
  check_honesty ~seed report;
  check_accounting ~seed orch report;
  s.healed := true;
  let final = recover_to_convergence ~probing:processes ~seed orch in
  check_accounting ~seed orch final;
  if digest orch <> Lazy.force baseline then
    Alcotest.failf "schedule %d: store did not converge to the failure-free state" seed;
  Orchestrator.shutdown orch

(* {1 In process} *)

(* A schedule with no faults at all must look exactly like the
   baseline — guards the harness itself. *)
let test_chaos_null_schedule () =
  let orch = Orchestrator.create () in
  ingest orch;
  let report = Orchestrator.run orch in
  Alcotest.(check bool) "quiescent" true report.Orchestrator.quiescent;
  Alcotest.(check int) "no dead letters" 0 (List.length report.Orchestrator.dead_letters);
  Alcotest.(check bool) "digest matches baseline" true (digest orch = Lazy.force baseline)

let test_chaos_schedules () =
  for seed = 0 to schedules - 1 do
    run_schedule ~processes:false seed
  done

(* {1 Worker processes} *)

let test_null_schedule () =
  if posix then begin
    let orch = Orchestrator.create ~config:(config 3) () in
    ingest orch;
    let report = Orchestrator.run orch in
    check_honesty ~seed:(-1) report;
    Alcotest.(check bool) "quiescent" true report.Orchestrator.quiescent;
    Alcotest.(check int) "no deaths" 0 report.Orchestrator.deaths;
    Alcotest.(check int) "no dead letters" 0 (List.length report.Orchestrator.dead_letters);
    check_accounting ~seed:(-1) orch report;
    Alcotest.(check bool) "digest matches baseline" true (digest orch = Lazy.force baseline);
    Orchestrator.shutdown orch
  end

(* Process isolation is an execution strategy, not a semantic change:
   one worker hosting every daemon, or several, end on the in-process
   store. *)
let test_agrees_with_orchestrator () =
  if posix then
    List.iter
      (fun procs ->
        let orch = Orchestrator.create ~config:(config procs) () in
        ingest orch;
        let report = Orchestrator.run orch in
        assert report.Orchestrator.quiescent;
        Orchestrator.shutdown orch;
        Alcotest.(check bool)
          (Printf.sprintf "%d worker(s) = in process" procs)
          true
          (digest orch = Lazy.force baseline);
        (* the workers' handler CPU crosses the pipe with each [done] *)
        Alcotest.(check bool)
          (Printf.sprintf "%d worker(s): handler CPU reported" procs)
          true
          (List.fold_left
             (fun acc (s : Orchestrator.daemon_stats) -> acc +. s.Orchestrator.cpu_seconds)
             0.0 report.Orchestrator.stats
          > 0.0))
      [ 1; 2 ]

let test_kill_schedules () =
  if posix then
    for seed = 0 to process_schedules - 1 do
      run_schedule ~processes:true seed
    done

(* {1 The durable journal, on both transports} *)

let test_durable_round_trip () =
  if posix then
    List.iter
      (fun procs ->
        with_temp_dir @@ fun dir ->
        Faults.reset_faults ();
        let orch, _ = open_durable ~config:(config procs) ~dir () in
        ingest orch;
        assert (Orchestrator.run orch).Orchestrator.quiescent;
        let d = digest orch in
        Orchestrator.shutdown orch;
        let orch2, _ = open_durable ~config:(config procs) ~dir () in
        let pending, dead = Orchestrator.state_keys orch2 in
        let label = Printf.sprintf "procs %d: %s" procs in
        Alcotest.(check bool) (label "no pending after clean shutdown") true (pending = []);
        Alcotest.(check bool) (label "no dead letters after clean shutdown") true (dead = []);
        Alcotest.(check bool) (label "store survives the round trip") true (digest orch2 = d);
        Orchestrator.shutdown orch2)
      [ 0; 2 ]

(* {1 Orchestrator crash schedules}

   The orchestrator itself dies at an armed journal crash point
   (journal append, settlement commit, checkpoint protocol step);
   recovery from the journal must land on a state that still converges
   to the failure-free store — a lost delivery would leave the
   pipeline incomplete, a duplicated one would double-apply the
   tf-additive visual-word ops and corrupt the digest.  Every seed
   runs on both transports: in process and on two workers. *)

let crash_points =
  [|
    "fabric.route";
    "fabric.done";
    "fabric.settled";
    "checkpoint.snapshot";
    "checkpoint.rename";
    "checkpoint.meta";
    "checkpoint.commit";
    "checkpoint.gc";
  |]

let run_crash_schedule ~procs seed =
  with_temp_dir @@ fun dir ->
  Faults.reset_faults ();
  let g = Prng.create (0xCAFE + (seed * 31)) in
  let config = config procs in
  let checkpoint_every = 4 + Prng.int g 8 in
  let orch, _ = open_durable ~config ~seed ~checkpoint_every ~dir () in
  ingest orch;
  let point = crash_points.(Prng.int g (Array.length crash_points)) in
  Faults.arm_crash point ~after:(Prng.int g 25);
  let crashed =
    match Orchestrator.run orch with _ -> false | exception Faults.Crash _ -> true
  in
  Faults.reset_faults ();
  if not crashed then begin
    (* the armed point never fired this schedule — still a clean run *)
    if digest orch <> Lazy.force baseline then
      Alcotest.failf "schedule %d, procs %d: clean run diverged" seed procs;
    Orchestrator.shutdown orch
  end
  else begin
    (* [run] killed the workers and abandoned the journal before
       re-raising; the directory is now exactly a crashed instance. *)
    let orch2, d = open_durable ~config ~seed ~dir () in
    reingest_media orch2;
    if Orchestrator.state_keys orch2 <> Durable.state_keys d then
      Alcotest.failf "schedule %d, procs %d: recovered live state diverges from journal" seed
        procs;
    let final = recover_to_convergence ~probing:true ~seed orch2 in
    check_honesty ~seed final;
    if digest orch2 <> Lazy.force baseline then
      Alcotest.failf "schedule %d, procs %d: post-crash recovery did not converge (point %s)"
        seed procs point;
    Orchestrator.shutdown orch2
  end

(* The data dictionary is journaled with the settlement that changes
   it: whichever settlement the orchestrator dies after, the recovered
   instance ends with the uncrashed run's schema history — the
   clusterer's evolution neither lost nor applied twice.  In process
   every settlement is a crash point; on two workers every fifth. *)
let test_crash_keeps_dictionary () =
  if posix then begin
    let uncrashed =
      let orch = Orchestrator.create () in
      ingest orch;
      assert (run_with_restarts orch).Orchestrator.quiescent;
      dictionary orch
    in
    List.iter
      (fun (procs, stride) ->
        let config = config procs in
        let rec from k =
          let crashed =
            with_temp_dir @@ fun dir ->
            Faults.reset_faults ();
            let orch, _ = open_durable ~config ~dir () in
            ingest orch;
            Faults.arm_crash "fabric.settled" ~after:k;
            let orch, crashed =
              match Orchestrator.run orch with
              | _ -> (orch, false)
              | exception Faults.Crash _ ->
                Faults.reset_faults ();
                let orch2, d = open_durable ~config ~dir () in
                reingest_media orch2;
                if Orchestrator.state_keys orch2 <> Durable.state_keys d then
                  Alcotest.failf "procs %d, crash after settlement %d: live state diverges" procs k;
                ignore (recover_to_convergence ~probing:true ~seed:k orch2);
                (orch2, true)
            in
            Faults.reset_faults ();
            if dictionary orch <> uncrashed then
              Alcotest.failf "procs %d, crash after settlement %d: dictionary history diverges"
                procs k;
            Orchestrator.shutdown orch;
            crashed
          in
          if crashed then from (k + stride)
        in
        from 0)
      [ (0, 1); (2, 5) ]
  end

let test_crash_schedules () =
  if posix then
    for seed = 0 to (process_schedules / 5) - 1 do
      List.iter (fun procs -> run_crash_schedule ~procs seed) [ 0; 2 ]
    done

(* {1 Crash mid-redelivery: the exactness acceptance test}

   Five deliveries dead-letter against a down daemon; the daemon
   heals; the orchestrator crashes after journaling the third
   [Fab_redeliver].  Recovery must show exactly three letters pending
   again and two still dead — the union untouched — and draining must
   handle every subject exactly once (the tf-additive visual-word
   write would expose a duplicate). *)

let echo_daemon () =
  Daemon.make ~name:"echo" ~topics:[ "echo.in" ] (fun ctx msg ->
      Store.add_visual_words ctx.Daemon.store ~doc:msg.Bus.subject [ ("echoed", 1.0) ];
      [])

let test_crash_mid_redelivery () =
  if posix then
    with_temp_dir @@ fun dir ->
    Faults.reset_faults ();
    let config = config 2 in
    let daemon, _heal = Faults.breakable (echo_daemon ()) in
    let orch, d = open_durable ~daemons:[ daemon ] ~config ~dir () in
    let ctx = Orchestrator.ctx orch in
    for i = 0 to 4 do
      Store.register_doc ctx.Daemon.store ~doc:i ~url:(Printf.sprintf "echo://%d" i);
      Bus.publish ctx.Daemon.bus { Bus.topic = "echo.in"; subject = i; payload = [] }
    done;
    assert (Orchestrator.run orch).Orchestrator.quiescent;
    let _, dead0 = Orchestrator.state_keys orch in
    Alcotest.(check int) "all five dead-lettered" 5 (List.length dead0);
    Faults.arm_crash "fabric.redeliver" ~after:2;
    (match Orchestrator.redeliver orch with
    | _ -> Alcotest.fail "redelivery should have crashed"
    | exception Faults.Crash _ -> ());
    Faults.reset_faults ();
    (* the instance dies here: kill its workers, leave the journal as-is *)
    List.iter
      (fun (id, pid, _) -> if pid <> None then ignore (Orchestrator.kill_worker orch id))
      (Orchestrator.workers orch);
    Durable.abandon d;
    (* recover with a healed incarnation of the daemon *)
    let daemon2, heal2 = Faults.breakable (echo_daemon ()) in
    let orch2, d2 = open_durable ~daemons:[ daemon2 ] ~config ~dir () in
    heal2 true;
    let pending', dead' = Orchestrator.state_keys orch2 in
    Alcotest.(check int) "exactly three letters replayed to pending" 3 (List.length pending');
    Alcotest.(check int) "exactly two letters still dead" 2 (List.length dead');
    let keys = List.sort compare (pending' @ List.map (fun (n, s, _) -> (n, s)) dead') in
    let keys0 = List.sort compare (List.map (fun (n, s, _) -> (n, s)) dead0) in
    Alcotest.(check bool) "no letter lost or duplicated" true (keys = keys0);
    Alcotest.(check bool) "live state equals journal state" true
      (Orchestrator.state_keys orch2 = Durable.state_keys d2);
    (* drain the replayed three, then redeliver and drain the rest *)
    assert (Orchestrator.run orch2).Orchestrator.quiescent;
    ignore (Orchestrator.redeliver orch2);
    assert (Orchestrator.run orch2).Orchestrator.quiescent;
    let pending'', dead'' = Orchestrator.state_keys orch2 in
    Alcotest.(check bool) "all drained" true (pending'' = [] && dead'' = []);
    let store = (Orchestrator.ctx orch2).Daemon.store in
    for i = 0 to 4 do
      Alcotest.(check bool)
        (Printf.sprintf "doc %d handled exactly once" i)
        true
        (Store.visual_words store ~doc:i = [ ("echoed", 1.0) ])
    done;
    Orchestrator.shutdown orch2

let () =
  Alcotest.run "mirror_pchaos"
    [
      ( "chaos",
        [
          Alcotest.test_case "null schedule" `Quick test_chaos_null_schedule;
          Alcotest.test_case
            (Printf.sprintf "%d seeded fault schedules" schedules)
            `Quick test_chaos_schedules;
        ] );
      ( "pchaos",
        [
          Alcotest.test_case "null schedule" `Quick test_null_schedule;
          Alcotest.test_case "fabric agrees with orchestrator" `Quick
            test_agrees_with_orchestrator;
          Alcotest.test_case "kill schedules (slice)" `Quick test_kill_schedules;
          Alcotest.test_case "durable round trip" `Quick test_durable_round_trip;
          Alcotest.test_case "orchestrator crash schedules" `Quick test_crash_schedules;
          Alcotest.test_case "crash mid-redelivery is exact" `Quick test_crash_mid_redelivery;
          Alcotest.test_case "orchestrator crash keeps the dictionary" `Quick
            test_crash_keeps_dictionary;
        ] );
    ]
