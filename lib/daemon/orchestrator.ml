module Clock = Mirror_util.Clock
module Trace = Mirror_util.Trace

type config = {
  procs : int;
  ttl : float;
  capacity : int option;
  policy : Bus.overflow_policy;
  breaker : Supervisor.config;
  barriers : (string * string list) list;
  max_retries : int;
}

let default_config =
  {
    procs = 0;
    ttl = 30.0;
    capacity = Some 256;
    policy = Bus.Backpressure;
    breaker = Supervisor.default_config;
    barriers = [ ("collection.complete", [ "image.new"; "segments.ready" ]) ];
    max_retries = 2;
  }

(* Virtual-clock advance per round. *)
let tick = 1.0

type daemon_stats = {
  name : string;
  handled : int;
  produced : int;
  failures : int;
  cpu_seconds : float;
}

type report = {
  rounds : int;
  quiescent : bool;
  pending : int;
  degraded : string list;
  stats : daemon_stats list;
  dead_letters : Deadletter.entry list;
  deaths : int;
  restarts : int;
}

type journal = {
  routed : string -> Bus.delivery -> unit;
  settled : string -> Bus.delivery -> unit;
  dead : Deadletter.entry -> unit;
  redelivered : Deadletter.entry -> unit;
  atomically : (unit -> unit) -> unit;
  abandon : unit -> unit;
  close : unit -> unit;
}

type tally = {
  mutable handled : int;
  mutable produced : int;
  mutable failures : int;
  mutable cpu : float;
}

(* Where a slot's handlers run: against an in-process replica, in a
   forked worker process, or nowhere (before the first run, or while a
   dead worker awaits its replacement). *)
type host = Local of Daemon.ctx | Forked of Proc.t | Down

(* A slot hosts a fixed set of daemons; at most one of their
   deliveries is in flight at a time. *)
type slot = {
  id : int;
  hosted : Daemon.t list;
  mutable host : host;
  mutable inflight : (string * Bus.delivery) option;  (* daemon, delivery *)
  mutable staged : Transport.write list;  (* [Op] frames so far, reversed *)
  mutable staged_pubs : Bus.message list;  (* [Pub] frames so far, reversed *)
  mutable synced : int;  (* op-log cursor already sent to the worker *)
  mutable stale : bool;  (* ran a failed delivery that wrote *)
}

type t = {
  context : Daemon.ctx;
  daemons : Daemon.t list;
  config : config;
  clk : Clock.t;
  sup : Supervisor.t;
  dlq : Deadletter.t;
  journal : journal option;
  tallies : (string, tally) Hashtbl.t;
  slots : slot array;
  slot_of : (string, slot) Hashtbl.t;
  (* Writes settled since the run started, with the slot they came
     from.  Each worker has a cursor into this log and is caught up,
     skipping its own writes, before every delivery.  With one slot
     (always the case in process) nothing is logged: its replica made
     every settled write itself.  (Writes made on the authoritative
     store between runs reach the replicas through the refresh every
     run starts with.) *)
  mutable log : (int * Transport.write) array;
  mutable nlog : int;
  mutable tick_hook : (int -> unit) option;
  mutable deaths : int;
  mutable restarts : int;
  mutable kills : int;
}

let initial_schema =
  "SET< TUPLE< Atomic<URL>: source, Atomic<Text>: annotation, Atomic<Image>: image > >"

(* A replica shares the media server (footage is read-only) but gets a
   private bus: a handler's only way onto the real bus is its return
   value, exactly as in a worker process. *)
let replica (c : Daemon.ctx) =
  {
    c with
    Daemon.bus = Bus.create ();
    store = Store.copy c.Daemon.store;
    dict = Dictionary.copy c.Daemon.dict;
  }

let push t origin w =
  if t.nlog = Array.length t.log then begin
    let bigger = Array.make (max 64 (2 * t.nlog)) (0, w) in
    Array.blit t.log 0 bigger 0 t.nlog;
    t.log <- bigger
  end;
  t.log.(t.nlog) <- (origin, w);
  t.nlog <- t.nlog + 1

let add_dead t name delivery cause =
  let e = { Deadletter.daemon = name; delivery; cause; at = Clock.now t.clk } in
  Deadletter.add t.dlq e;
  Option.iter (fun j -> j.dead e) t.journal

let create ?daemons ?clock ?(seed = 7901) ?(config = default_config) ?journal () =
  if config.procs < 0 then invalid_arg "Orchestrator.create: negative procs";
  let daemons = match daemons with Some ds -> ds | None -> Standard.all () in
  let clk =
    match clock with
    | Some c -> c
    | None -> if config.procs = 0 then Clock.virtual_ () else Clock.mono ()
  in
  let context =
    {
      Daemon.bus = Bus.create ?capacity:config.capacity ~policy:config.policy ();
      media = Media.create ();
      dict = Dictionary.create ();
      store = Store.create ();
    }
  in
  Dictionary.register context.Daemon.dict ~name:"ImageLibrary" ~schema:initial_schema
    ~owner:"application";
  let tallies = Hashtbl.create 16 in
  List.iter
    (fun (d : Daemon.t) ->
      Hashtbl.replace tallies d.Daemon.name
        { handled = 0; produced = 0; failures = 0; cpu = 0.0 };
      List.iter (fun topic -> Bus.subscribe context.Daemon.bus ~topic ~name:d.Daemon.name)
        d.Daemon.topics)
    daemons;
  (* Daemons are striped over the slots; in process there is one. *)
  let nslots = max 1 config.procs in
  let slots =
    Array.init nslots (fun id ->
        {
          id;
          hosted = List.filteri (fun i _ -> i mod nslots = id) daemons;
          host = Down;
          inflight = None;
          staged = [];
          staged_pubs = [];
          synced = 0;
          stale = false;
        })
  in
  let slot_of = Hashtbl.create 16 in
  Array.iter
    (fun s -> List.iter (fun (d : Daemon.t) -> Hashtbl.replace slot_of d.Daemon.name s) s.hosted)
    slots;
  let t =
    {
      context;
      daemons;
      config;
      clk;
      sup = Supervisor.create ~config:config.breaker ~clock:clk ~seed ();
      dlq = Deadletter.create ();
      journal;
      tallies;
      slots;
      slot_of;
      log = [||];
      nlog = 0;
      tick_hook = None;
      deaths = 0;
      restarts = 0;
      kills = 0;
    }
  in
  (* Sheds under [Shed_oldest] are dead letters too: nothing leaves the
     bus without an attributable record. *)
  Bus.set_overflow_handler context.Daemon.bus
    (Some (fun name delivery -> add_dead t name delivery Deadletter.Overflow));
  Option.iter
    (fun j ->
      (* Journal the routing of registered daemons' deliveries (other
         subscribers, e.g. a client inbox, are not recovered). *)
      Bus.set_route_hook context.Daemon.bus
        (Some (fun name d -> if Hashtbl.mem tallies name then j.routed name d)))
    journal;
  t

let ctx t = t.context
let clock t = t.clk
let supervisor t = t.sup
let dead_letters t = Deadletter.entries t.dlq
let set_tick_hook t h = t.tick_hook <- h
let deaths t = t.deaths
let restarts t = t.restarts
let kills t = t.kills
let adopt_dead_letter t e = Deadletter.add t.dlq e

let inflight t =
  Array.fold_left (fun acc s -> if s.inflight = None then acc else acc + 1) 0 t.slots

let pending t =
  List.fold_left
    (fun acc (d : Daemon.t) -> acc + Bus.pending_for t.context.Daemon.bus ~name:d.Daemon.name)
    (inflight t) t.daemons

let degraded t =
  List.filter_map
    (fun (d : Daemon.t) ->
      let name = d.Daemon.name in
      if
        Supervisor.state t.sup name <> Supervisor.Closed
        || Deadletter.for_daemon t.dlq name <> []
      then Some name
      else None)
    t.daemons

let workers t =
  if t.config.procs = 0 then []
  else
    Array.to_list
      (Array.map
         (fun s ->
           ( s.id,
             (match s.host with Forked p -> Some (Proc.pid p) | Local _ | Down -> None),
             List.map (fun (d : Daemon.t) -> d.Daemon.name) s.hosted ))
         t.slots)

let state_keys t =
  let bus = t.context.Daemon.bus in
  let pending =
    List.concat_map
      (fun (d : Daemon.t) ->
        let name = d.Daemon.name in
        let acc = ref [] in
        ignore
          (Bus.sweep bus ~name ~keep:(fun (dv : Bus.delivery) ->
               acc := (name, dv.Bus.seq) :: !acc;
               true));
        !acc)
      t.daemons
    @ Array.fold_left
        (fun acc s ->
          match s.inflight with Some (n, dv) -> (n, dv.Bus.seq) :: acc | None -> acc)
        [] t.slots
  in
  ( List.sort compare pending,
    List.sort compare
      (List.map
         (fun (e : Deadletter.entry) ->
           ( e.Deadletter.daemon,
             e.Deadletter.delivery.Bus.seq,
             Deadletter.cause_tag e.Deadletter.cause ))
         (Deadletter.entries t.dlq)) )

let redeliver ?daemon ?(probe = false) t =
  let letters = Deadletter.take ?daemon t.dlq in
  List.iter
    (fun (e : Deadletter.entry) ->
      (* One journal record per letter: a crash in this loop loses
         nothing — replayed letters are pending again, the rest are
         still dead. *)
      Option.iter (fun j -> j.redelivered e) t.journal;
      (* Force-close assumes the operator healed the daemon; [probe]
         only half-opens, so the first replayed delivery acts as the
         probe and a still-sick daemon re-trips after one failure
         instead of absorbing the whole backlog. *)
      if probe then Supervisor.probe t.sup e.Deadletter.daemon
      else Supervisor.reset t.sup e.Deadletter.daemon;
      let d = e.Deadletter.delivery in
      d.Bus.attempts <- 0;
      d.Bus.deadline <- None;
      Bus.requeue_delivery t.context.Daemon.bus ~name:e.Deadletter.daemon d)
    letters;
  List.length letters

let ingest_image t ~doc ~url ?annotation img =
  Media.put t.context.Daemon.media ~url img;
  Store.register_doc t.context.Daemon.store ~doc ~url;
  Bus.publish t.context.Daemon.bus
    { Bus.topic = "image.new"; subject = doc; payload = [ ("url", url) ] };
  match annotation with
  | None -> ()
  | Some text ->
    Bus.publish t.context.Daemon.bus
      { Bus.topic = "annotation.new"; subject = doc; payload = [ ("text", text) ] }

let complete_collection t =
  Bus.publish t.context.Daemon.bus
    { Bus.topic = "collection.complete"; subject = -1; payload = [] }

let formulate t text =
  let bus = t.context.Daemon.bus in
  let reply = "client.formulated" in
  Bus.subscribe bus ~topic:reply ~name:"client";
  Bus.publish bus
    { Bus.topic = "query.formulate"; subject = -1; payload = [ ("text", text); ("reply", reply) ] }

let formulated t =
  let bus = t.context.Daemon.bus in
  match Bus.fetch bus ~name:"client" with
  | None -> None
  | Some m -> (
    match Bus.attr m "concepts" with
    | None -> Some []
    | Some enc ->
      Some
        (Mirror_util.Stringx.split_on (fun c -> c = ';') enc
        |> List.filter_map (fun pair ->
               match String.index_opt pair '=' with
               | None -> None
               | Some i ->
                 let c = String.sub pair 0 i in
                 let w = String.sub pair (i + 1) (String.length pair - i - 1) in
                 Option.map (fun w -> (c, w)) (float_of_string_opt w))))

(* {1 Settlement}

   Both transports end every delivery here, with the handler's
   captured effects.  A handled delivery's writes reach the
   orchestrator's store, and its messages the bus, together (one
   atomic journal group when journaled); a failed one's are dropped,
   and the replica that ran it is refreshed before it serves again, so
   no partial write survives anywhere — the retry cannot double-apply
   a tf-additive visual-word op. *)
let settle t slot name (dv : Bus.delivery) (o : Worker.outcome) =
  let bus = t.context.Daemon.bus in
  slot.inflight <- None;
  let tally = Hashtbl.find t.tallies name in
  tally.cpu <- tally.cpu +. o.Worker.cpu;
  match o.Worker.verdict with
  | Worker.Handled ->
    let commit () =
      List.iter
        (fun w ->
          Worker.apply t.context w;
          if Array.length t.slots > 1 then push t slot.id w)
        o.Worker.writes;
      tally.handled <- tally.handled + 1;
      tally.produced <- tally.produced + List.length o.Worker.pubs;
      Supervisor.success t.sup name;
      List.iter (Bus.publish bus) o.Worker.pubs;
      Option.iter (fun j -> j.settled name dv) t.journal
    in
    (match t.journal with Some j -> j.atomically commit | None -> commit ())
  | Worker.Failed text ->
    tally.failures <- tally.failures + 1;
    if o.Worker.writes <> [] then slot.stale <- true;
    Supervisor.failure t.sup name;
    if dv.Bus.attempts <= t.config.max_retries then Bus.requeue_delivery bus ~name dv
    else add_dead t name dv (Deadletter.Failed text)
  | Worker.Fatal _ ->
    (* A process death, not a daemon failure: no retry budget spent. *)
    tally.failures <- tally.failures + 1;
    slot.stale <- true;
    Bus.requeue_delivery bus ~name dv

(* {1 Process plumbing} *)

let spawn t slot =
  let siblings =
    Array.fold_left
      (fun acc s -> match s.host with Forked p when s.id <> slot.id -> p :: acc | _ -> acc)
      [] t.slots
  in
  let c = t.context in
  let p =
    Proc.spawn ~siblings (fun ic oc ->
        (* The child's fork-copy of the context is its replica; its
           writes leave only as captured [Op] frames. *)
        Store.set_hook c.Daemon.store None;
        Dictionary.set_hook c.Daemon.dict None;
        match Worker.serve ic oc slot.hosted ~ctx:{ c with Daemon.bus = Bus.create () } with
        | Worker.Closed -> 0
        | Worker.Fatal _ -> 70)
  in
  slot.host <- Forked p;
  slot.synced <- t.nlog;
  slot.staged <- [];
  slot.staged_pubs <- []

(* A worker process is gone: fail whatever it was handling and trip
   the breakers of everything it hosted, so the backlog waits for the
   restart instead of burning attempts. *)
let mark_dead t slot p =
  Proc.close p;
  Proc.reap p;
  slot.host <- Down;
  t.deaths <- t.deaths + 1;
  (match slot.inflight with
  | None -> ()
  | Some (name, dv) ->
    settle t slot name dv
      {
        Worker.writes = [];
        pubs = [];
        cpu = 0.0;
        verdict = Worker.Failed (Printf.sprintf "worker process %d died" (Proc.pid p));
      });
  List.iter (fun (d : Daemon.t) -> Supervisor.trip_now t.sup d.Daemon.name) slot.hosted

(* Bring a slot's replica to the orchestrator's current state. *)
let refresh t slot =
  slot.stale <- false;
  (match slot.host with Forked p -> Proc.quit p | Local _ | Down -> ());
  if t.config.procs > 0 then spawn t slot else slot.host <- Local (replica t.context)

(* Send worker [p] the log entries it has not seen, skipping its own. *)
let catch_up t slot p =
  let rec go () =
    if slot.synced >= t.nlog then true
    else
      let origin, w = t.log.(slot.synced) in
      (origin = slot.id || Proc.send p (Transport.Sync w))
      && (slot.synced <- slot.synced + 1; go ())
  in
  go ()

(* {1 Dispatch} *)

(* A barrier delivery is held while any awaited topic still has queued
   or in-flight deliveries or dead letters: the downstream daemon must
   not consume its trigger before upstream work has resolved. *)
let barrier_held t (m : Bus.message) =
  match List.assoc_opt m.Bus.topic t.config.barriers with
  | None -> false
  | Some awaits ->
    List.exists
      (fun topic ->
        Bus.pending_by_topic t.context.Daemon.bus ~topic > 0
        || Deadletter.exists_topic t.dlq topic
        || Array.exists
             (fun s ->
               match s.inflight with
               | Some (_, dv) -> String.equal dv.Bus.message.Bus.topic topic
               | None -> false)
             t.slots)
      awaits

(* Stamp fresh deliveries with their deadline; expire overdue ones
   into the dead-letter queue. *)
let sweep t name =
  let now = Clock.now t.clk in
  let expired =
    Bus.sweep t.context.Daemon.bus ~name ~keep:(fun (dv : Bus.delivery) ->
        match dv.Bus.deadline with
        | None ->
          dv.Bus.deadline <- Some (now +. t.config.ttl);
          true
        | Some dl -> dl > now)
  in
  List.iter
    (fun dv ->
      add_dead t name dv
        (Deadletter.Expired (Supervisor.state_to_string (Supervisor.state t.sup name))))
    expired

let idle slot =
  slot.inflight = None && match slot.host with Down -> false | Local _ | Forked _ -> true

(* Hand one delivery to the daemon's slot.  In process it runs and
   settles now; a worker process settles it when its terminator
   arrives. *)
let deliver t ~fatal slot (d : Daemon.t) (dv : Bus.delivery) =
  if slot.stale then refresh t slot;
  let name = d.Daemon.name in
  dv.Bus.attempts <- dv.Bus.attempts + 1;
  slot.inflight <- Some (name, dv);
  match slot.host with
  | Local c ->
    let o = Worker.handle c d dv.Bus.message in
    (match o.Worker.verdict with Worker.Fatal e -> fatal := Some e | _ -> ());
    settle t slot name dv o
  | Forked p ->
    if
      not
        (catch_up t slot p
        && Proc.send p
             (Transport.Deliver { seq = dv.Bus.seq; daemon = name; message = dv.Bus.message }))
    then begin
      (* The process died while we were talking to it; the delivery
         goes back (its attempt counts). *)
      slot.inflight <- None;
      Bus.requeue_delivery t.context.Daemon.bus ~name dv;
      mark_dead t slot p
    end
  | Down -> assert false

(* One daemon's turn in a round: handle at most the deliveries present
   at its turn (so a daemon whose output feeds its own inbox cannot
   monopolise a round), gated by the breaker — open = skip, half-open
   = one probe delivery — and by its slot being free. *)
let serve_daemon t ~fatal ~attempts ~held trace (d : Daemon.t) =
  let bus = t.context.Daemon.bus in
  let name = d.Daemon.name in
  let slot = Hashtbl.find t.slot_of name in
  let tally = Hashtbl.find t.tallies name in
  sweep t name;
  let budget =
    match Supervisor.state t.sup name with
    | Supervisor.Open _ -> 0
    | Supervisor.Half_open -> min 1 (Bus.queued bus ~name)
    | Supervisor.Closed -> Bus.queued bus ~name
  in
  let rec drain budget =
    if budget > 0 && !fatal = None && idle slot && Supervisor.allow t.sup name then
      match Bus.fetch_delivery bus ~name with
      | None -> ()
      | Some dv when barrier_held t dv.Bus.message ->
        (* Put it back and stop: the trigger waits for upstream work
           to resolve. *)
        Bus.requeue_delivery bus ~name dv;
        held := name :: !held
      | Some dv ->
        incr attempts;
        deliver t ~fatal slot d dv;
        drain (budget - 1)
  in
  if budget > 0 && Trace.is_on trace then begin
    let handled_before = tally.handled in
    Trace.enter trace name;
    drain budget;
    Trace.leave ~rows:(tally.handled - handled_before) trace
  end
  else drain budget

(* {1 The worker processes' side of a round} *)

(* A dead slot is respawned once a hosted breaker's backoff has
   elapsed (the [Open] → [Half_open] transition is the restart
   signal), and only if there is work left for it. *)
let respawn t slot =
  match slot.host with
  | Local _ | Forked _ -> ()
  | Down ->
    let bus = t.context.Daemon.bus in
    let has_work =
      List.exists
        (fun (d : Daemon.t) -> Bus.pending_for bus ~name:d.Daemon.name > 0)
        slot.hosted
    in
    let ready =
      List.exists
        (fun (d : Daemon.t) ->
          match Supervisor.state t.sup d.Daemon.name with
          | Supervisor.Open _ -> false
          | Supervisor.Closed | Supervisor.Half_open -> true)
        slot.hosted
    in
    if has_work && ready then begin
      spawn t slot;
      t.restarts <- t.restarts + 1
    end

let on_reply t trace slot reply =
  let finish seq (o : Worker.outcome) =
    match slot.inflight with
    | Some (name, dv) when dv.Bus.seq = seq ->
      slot.staged <- [];
      slot.staged_pubs <- [];
      Trace.enter trace name;
      settle t slot name dv o;
      Trace.leave trace
    | _ -> raise (Transport.Bad (Printf.sprintf "unexpected terminator for #%d" seq))
  in
  match reply with
  | Transport.Op w -> slot.staged <- w :: slot.staged
  | Transport.Pub m -> slot.staged_pubs <- m :: slot.staged_pubs
  | Transport.Done (seq, cpu) ->
    finish seq
      {
        Worker.writes = List.rev slot.staged;
        pubs = List.rev slot.staged_pubs;
        cpu;
        verdict = Worker.Handled;
      }
  | Transport.Fail (seq, cpu, text) ->
    finish seq
      { Worker.writes = List.rev slot.staged; pubs = []; cpu; verdict = Worker.Failed text }

(* Wait for replies: block while an answer is owed; otherwise sleep
   only until the earliest open breaker guarding pending work reopens
   (never on a virtual clock, which only rounds advance). *)
let await t trace =
  let bus = t.context.Daemon.bus in
  let timeout =
    if inflight t > 0 then 1.0
    else if Clock.is_virtual t.clk then 0.0
    else
      let now = Clock.now t.clk in
      let wake =
        List.fold_left
          (fun acc (d : Daemon.t) ->
            match Supervisor.waiting_until t.sup d.Daemon.name with
            | Some u when Bus.pending_for bus ~name:d.Daemon.name > 0 -> Float.min acc u
            | _ -> acc)
          infinity t.daemons
      in
      if wake = infinity then 0.0 else Float.min 1.0 (Float.max 0.0 (wake -. now))
  in
  let live =
    Array.fold_left (fun acc s -> match s.host with Forked p -> p :: acc | _ -> acc) [] t.slots
  in
  let ready = Proc.wait live timeout in
  Array.iter
    (fun slot ->
      match slot.host with
      | Forked p when List.memq p ready -> (
        match Proc.read p with
        | None -> mark_dead t slot p
        | Some replies -> List.iter (on_reply t trace slot) replies)
      | _ -> ())
    t.slots

let stop_workers t ~kill =
  Array.iter
    (fun slot ->
      match slot.host with
      | Forked p ->
        if kill then begin
          Proc.kill p;
          Proc.close p;
          Proc.reap p
        end
        else Proc.quit p;
        (* An unsettled delivery goes back on the bus (its attempt
           counts); the journal still has it pending. *)
        Option.iter
          (fun (name, dv) -> Bus.requeue_delivery t.context.Daemon.bus ~name dv)
          slot.inflight;
        slot.inflight <- None;
        slot.host <- Down
      | Local _ | Down -> ())
    t.slots

let with_sigpipe_ignored t f =
  if t.config.procs = 0 then f ()
  else
    let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev) f

let kill_worker t id =
  if id < 0 || id >= Array.length t.slots then false
  else
    match t.slots.(id).host with
    | Forked p ->
      Proc.kill p;
      t.kills <- t.kills + 1;
      true
    | Local _ | Down -> false

let shutdown t =
  with_sigpipe_ignored t (fun () -> stop_workers t ~kill:false);
  Option.iter (fun j -> j.close ()) t.journal

(* {1 The run loop} *)

let run ?max_rounds ?(trace = Trace.null) t =
  let max_rounds =
    match max_rounds with Some n -> n | None -> if t.config.procs = 0 then 1000 else 100_000
  in
  let bus = t.context.Daemon.bus in
  let rounds = ref 0 in
  let fatal : exn option ref = ref None in
  let dead_before = Deadletter.count t.dlq in
  let deaths0 = t.deaths and restarts0 = t.restarts in
  Supervisor.set_listener t.sup
    (Some
       (fun name st ->
         if Trace.is_on trace then
           Trace.event trace "breaker"
             ~attrs:[ ("daemon", name); ("state", Supervisor.state_to_string st) ]));
  Fun.protect ~finally:(fun () -> Supervisor.set_listener t.sup None) @@ fun () ->
  with_sigpipe_ignored t (fun () ->
      try
        (* Every run starts from fresh replicas: fresh processes
           capture the current state (media ingested since the last
           run included), and the op log restarts from empty. *)
        stop_workers t ~kill:false;
        t.nlog <- 0;
        t.log <- [||];
        Array.iter (refresh t) t.slots;
        Trace.enter trace "orchestrator.run";
        let continue_ = ref (pending t > 0) in
        while !continue_ && !fatal = None && !rounds < max_rounds do
          incr rounds;
          Option.iter (fun f -> f !rounds) t.tick_hook;
          Trace.enter trace (Printf.sprintf "round %d" !rounds);
          let attempts = ref 0 in
          let held = ref [] in
          let dead_at_round_start = Deadletter.count t.dlq in
          Array.iter (respawn t) t.slots;
          List.iter
            (fun d -> if !fatal = None then serve_daemon t ~fatal ~attempts ~held trace d)
            t.daemons;
          (* Something in flight now settles in this round or is still
             owed: either way the round made progress. *)
          let busy = inflight t > 0 in
          if t.config.procs > 0 then await t trace;
          let dead_delta = Deadletter.count t.dlq - dead_at_round_start in
          Trace.leave
            ~attrs:
              [ ("attempts", string_of_int !attempts); ("dead", string_of_int dead_delta) ]
            trace;
          if Clock.is_virtual t.clk then Clock.advance t.clk tick;
          (* Keep pumping while the round did something, a delivery is
             in flight, or an unhealthy breaker guards pending work:
             advancing time will half-open it, or the backlog will
             expire; a half-open one gets its probe next round unless
             a barrier holds it.  Anything else is a stall no amount
             of rounds can fix — stop and report it honestly. *)
          let can_unblock () =
            List.exists
              (fun (d : Daemon.t) ->
                let name = d.Daemon.name in
                Bus.pending_for bus ~name > 0
                &&
                match Supervisor.state t.sup name with
                | Supervisor.Closed -> false
                | Supervisor.Open _ -> true
                | Supervisor.Half_open -> not (List.mem name !held))
              t.daemons
          in
          continue_ :=
            pending t > 0
            && (!attempts > 0 || dead_delta > 0 || busy || can_unblock ())
        done;
        Trace.leave
          ~attrs:
            [
              ("rounds", string_of_int !rounds);
              ("pending", string_of_int (pending t));
              ("dead_letters", string_of_int (Deadletter.count t.dlq - dead_before));
            ]
          trace
      with e ->
        (* The orchestrator itself is dying (e.g. an armed journal
           crash point): take the workers down hard and leave the
           journal exactly as-is — recovery replays it. *)
        stop_workers t ~kill:true;
        Option.iter (fun j -> j.abandon ()) t.journal;
        raise e);
  (match !fatal with Some e -> raise e | None -> ());
  let stats =
    List.map
      (fun (d : Daemon.t) ->
        let m = Hashtbl.find t.tallies d.Daemon.name in
        {
          name = d.Daemon.name;
          handled = m.handled;
          produced = m.produced;
          failures = m.failures;
          cpu_seconds = m.cpu;
        })
      t.daemons
  in
  let dead_letters =
    let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
    drop dead_before (Deadletter.entries t.dlq)
  in
  let pending = pending t in
  {
    rounds = !rounds;
    quiescent = pending = 0;
    pending;
    degraded = degraded t;
    stats;
    dead_letters;
    deaths = t.deaths - deaths0;
    restarts = t.restarts - restarts0;
  }
