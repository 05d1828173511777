(** Drives the open distributed architecture: the one delivery engine.

    Owns the bus/media/dictionary/store context, ingests footage
    (publishing the corresponding messages) and then pumps the bus in
    rounds until the daemons go quiescent — under supervision: every
    daemon has a {!Supervisor} circuit breaker, every delivery a retry
    budget and a deadline, and everything undeliverable lands in a
    {!Deadletter} queue with its cause, from which {!redeliver} can
    replay it once the target is healthy again.

    {b Transports.}  [config.procs] chooses where handlers run.  At
    [0] they run in this process, one after another, each daemon
    handling at most the deliveries queued at its turn in the round.
    At [N >= 1] the daemons are striped over [N] forked worker
    processes ({!Proc}) that speak the {!Transport} line protocol; one
    delivery is in flight per process, and a round waits for replies.
    Either way a handler runs against a {e replica} of the store and
    dictionary (kept in step across worker slots by one op log), and
    every delivery is {e settled} by the same code: its captured
    writes, publications and dictionary changes reach this
    orchestrator's context only when it succeeds, and are dropped
    when it fails.  A replica that ran a failed delivery which wrote
    anything is refreshed from the authoritative store before it
    serves again (re-forked, or copied in process), so a retry can
    never see — or double-apply — a partial write.

    {b Time} is injectable ({!Mirror_util.Clock}).  By default a
    virtual clock advances one tick per round in process, so breaker
    backoff and message deadlines are deterministic and tests never
    sleep; worker processes run on the monotonic wall clock — real
    processes die in real time.

    {b Failure taxonomy.}  An exception from a handler is a {e daemon}
    failure — retried, then dead-lettered with the exception text.
    {!Faults.Crash}, [Out_of_memory] and [Stack_overflow] are {e
    process} deaths.  In process the delivery is requeued and the
    exception re-raised to the caller after the round (state survives
    in [t]; call {!run} again to restart).  A worker process that dies
    ([SIGKILL] included) is seen as EOF on its pipe: its delivery is
    failed, its hosted daemons' breakers trip at once, and a fresh
    process replaces it when a breaker half-opens.

    {b Journal.}  An optional {!journal} (the durable one is
    [Mirror_store.Durable.journal], wired up by
    [Mirror_store.Durable.orchestrator]) records every routing
    decision, settlement, dead letter and redelivery, on either
    transport, so a crashed orchestrator can be recovered exactly.
    Each event is a commit of its own, durable before the call
    returns, except inside {!journal.atomically}, whose whole group is
    one commit. *)

type config = {
  procs : int;  (** Worker processes; [0] runs the handlers in process. *)
  ttl : float;
      (** Message deadline: a delivery still queued [ttl] clock
          seconds after it was first considered is dead-lettered as
          expired (so a downed daemon's backlog drains to the
          dead-letter queue instead of burning retry attempts). *)
  capacity : int option;  (** Per-subscriber bus queue bound. *)
  policy : Bus.overflow_policy;
  breaker : Supervisor.config;
  barriers : (string * string list) list;
      (** [(topic, awaits)]: a delivery on [topic] is held while any
          [awaits] topic has queued or in-flight deliveries or dead
          letters.  The default holds ["collection.complete"] until
          segmentation (["image.new"]) and feature extraction
          (["segments.ready"]) have resolved, so the clusterer never
          runs on a partial feature store. *)
  max_retries : int;
      (** Extra attempts per {e delivery} (each enqueued copy has its
          own budget; a worker death counts as an attempt). *)
}

val default_config : config
(** In process, ttl 30s, capacity 256, [Backpressure], default
    breaker, the ["collection.complete"] barrier, 2 retries. *)

type daemon_stats = {
  name : string;
  handled : int;  (** Messages successfully processed. *)
  produced : int;  (** Messages published as a result. *)
  failures : int;  (** Failed handlings (each attempt counts). *)
  cpu_seconds : float;
      (** Processor time inside the handler (a worker reports its own
          figure with each terminator). *)
}

type report = {
  rounds : int;
  quiescent : bool;
      (** True when no deliveries remain queued or in flight for any
          daemon.  A false report is honest about why: [pending]
          counts the backlog (livelock guard hit, breaker still open,
          or a barrier held by dead letters). *)
  pending : int;  (** Deliveries still queued or in flight when the run stopped. *)
  degraded : string list;
      (** Daemons that ended the run unhealthy: breaker not closed,
          or dead letters addressed to them.  Empty for a clean run. *)
  stats : daemon_stats list;  (** In daemon registration order;
          cumulative across runs of the same orchestrator. *)
  dead_letters : Deadletter.entry list;  (** Added during this run. *)
  deaths : int;  (** Worker processes that died during this run. *)
  restarts : int;  (** Processes forked during this run to replace them. *)
}

type journal = {
  routed : string -> Bus.delivery -> unit;
      (** A delivery was enqueued for the named daemon. *)
  settled : string -> Bus.delivery -> unit;  (** It was handled. *)
  dead : Deadletter.entry -> unit;  (** It was dead-lettered. *)
  redelivered : Deadletter.entry -> unit;  (** A dead letter went back on the bus. *)
  atomically : (unit -> unit) -> unit;
      (** Run a settlement (its store and dictionary writes, reached
          through their own journal hooks, its routes and its
          [settled]) as one atomic group, durable before it returns:
          the settlement's publications are delivered only after. *)
  abandon : unit -> unit;  (** The orchestrator is dying: stop writing. *)
  close : unit -> unit;  (** Clean shutdown. *)
}
(** Where the delivery state machine is recorded. *)

type t

val create :
  ?daemons:Daemon.t list ->
  ?clock:Mirror_util.Clock.t ->
  ?seed:int ->
  ?config:config ->
  ?journal:journal ->
  unit ->
  t
(** Fresh context with the given daemons subscribed ([Standard.all] by
    default) and the ["ImageLibrary"] extent registered in the
    dictionary.  [clock] defaults to a fresh virtual clock in process
    and the monotonic wall clock with worker processes; [seed]
    (default 7901) drives the breakers' deterministic jitter.  No
    process is forked before {!run}. *)

val ctx : t -> Daemon.ctx
(** The authoritative context (media server, store, dictionary, bus). *)

val clock : t -> Mirror_util.Clock.t
val supervisor : t -> Supervisor.t

val dead_letters : t -> Deadletter.entry list
(** The full dead-letter queue, oldest first (persists across runs). *)

val redeliver : ?daemon:string -> ?probe:bool -> t -> int
(** Drain the dead-letter queue (all of it, or one daemon's) back
    onto the bus with fresh retry budgets and deadlines.  By default
    the target breakers are force-closed — the operator's "the daemon
    is healthy again" signal.  With [~probe:true] they are only moved
    to half-open, so the first replayed delivery acts as a probe and a
    still-sick daemon re-trips after one failure instead of absorbing
    the whole backlog.  Returns the number of redelivered messages;
    follow with {!run} to process them. *)

val ingest_image :
  t -> doc:int -> url:string -> ?annotation:string -> Mirror_mm.Image.t -> unit
(** Publish footage on the media server, register the document, and
    announce ["image.new"] (and ["annotation.new"] when an annotation
    is supplied). *)

val complete_collection : t -> unit
(** Announce ["collection.complete"] — unblocks the clusterer once
    the barrier releases. *)

val formulate : t -> string -> unit
(** Post a ["query.formulate"] request for the given text on behalf of
    a client; the formulation daemon answers after the next {!run}. *)

val formulated : t -> (string * float) list option
(** Pop the client's next formulation answer (concept, belief) — the
    interactive query-formulation round trip of §5.1. *)

val run : ?max_rounds:int -> ?trace:Mirror_util.Trace.t -> t -> report
(** Refresh every replica (fresh worker processes capture the current
    state, ingested media included), then pump messages until
    quiescence, the livelock guard, or a stall no amount of time can
    fix.  [max_rounds] (default 1000 in process, 100000 with worker
    processes, whose rounds are reply events) guards against livelock.
    Daemons whose breaker is open are skipped (their backlog waits,
    then expires); a half-open breaker admits a single probe delivery.
    Worker processes are left running for inspection until the next
    run or {!shutdown}.

    [trace] records an ["orchestrator.run"] span with one child per
    round, per-daemon spans beneath (around the in-process handling,
    or a worker delivery's settlement), and zero-duration ["breaker"]
    events on breaker transitions.  When the {!Mirror_util.Metrics}
    registry is enabled, per-daemon
    ["daemon.<name>.handled"/".failures"/".ms"/".depth"] metrics,
    ["breaker.<name>.opened"/".half_open"/".closed"] counters and the
    ["bus.*"] counters are recorded.

    @raise Faults.Crash (and re-raises [Out_of_memory] /
    [Stack_overflow]) after requeueing an in-process handler's
    delivery — see the failure taxonomy above.  Any other exception
    escaping the loop (e.g. an armed journal crash point) kills the
    workers and abandons the journal before propagating. *)

val shutdown : t -> unit
(** Quit the worker processes gracefully and close the journal. *)

(** {1 Recovery, fault injection and introspection} *)

val adopt_dead_letter : t -> Deadletter.entry -> unit
(** Put a recovered dead letter in the queue without journaling it. *)

val set_tick_hook : t -> (int -> unit) option -> unit
(** Called at the start of every round with its number — the chaos
    suites' fault-injection point. *)

val kill_worker : t -> int -> bool
(** [SIGKILL] the process in slot [id]; false if there is none.  The
    death is observed (EOF) on the next round. *)

val workers : t -> (int * int option * string list) list
(** Per worker slot: (id, live pid, hosted daemon names).  Empty in
    process. *)

val state_keys : t -> (string * int) list * (string * int * string) list
(** Live (daemon, seq) pending keys — queued and in flight — and
    (daemon, seq, cause tag) dead letters, both sorted; directly
    comparable with [Mirror_store.Durable.state_keys] for
    exact-recovery checks. *)

val deaths : t -> int
val restarts : t -> int
val kills : t -> int
(** Cumulative worker deaths observed, replacement forks, and
    {!kill_worker} signals sent. *)
