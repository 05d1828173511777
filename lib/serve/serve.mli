(** The concurrent multi-user session layer.

    A serve handle multiplexes many interleaved client streams over
    one live {!Mirror_core.Mirror} database, adding the three serving
    guarantees the single-user facade lacks:

    - {e snapshot-isolated reads}: every query runs against a pinned
      {!Version} — an immutable copy-on-write snapshot of the whole
      logical state — so a reader never observes a half-applied write
      batch, and a session that {!request-Pin}s keeps one frozen view
      across many queries while writers commit past it.
    - {e group-committed writes}: write programs from all sessions are
      batched; a commit applies the batch to the live database as one
      {!Mirror_store.Durable.atomically} group (one WAL frame, {e one}
      fsync for the whole batch), and only then publishes a single new
      version — durability before visibility, one version per batch.
    - {e admission control}: session count and per-session request
      queues are bounded (overflow is a structured
      {!error-Admission_refused}, never a hang), every query carries a
      {!Mirror_bat.Boundcheck} peak-bytes budget, and a per-session
      {!Mirror_daemon.Supervisor} circuit breaker sheds a stream of
      failing requests with {!error-Breaker_open} until its (virtual
      or wall) clock backoff elapses.

    Results are served through a {!Qcache}: keyed by (version,
    {!Mirror_core.Normalize.key}), so equivalent formulations share a
    slot and a committed write invalidates exactly by never matching
    the new version's lookups.

    Scheduling is cooperative and deterministic: {!submit} only
    enqueues; {!step} processes one request (round-robin across
    sessions) and {!drain} runs to quiescence, committing any open
    write batch.  Tests drive exact interleavings this way; the socket
    front end ({!Server}) calls [drain] after each input burst. *)

type config = {
  max_sessions : int;  (** concurrent session cap *)
  queue_capacity : int;  (** pending requests per session *)
  max_bytes : int option;  (** per-query Boundcheck admission budget *)
  cache_capacity : int;  (** result-cache entries *)
  commit_batch : int;
      (** commit the write batch once it holds this many writes (it
          also commits when {!step} runs out of other work) *)
  breaker : Mirror_daemon.Supervisor.config;
}

val default_config : config
(** 64 sessions, queue 32, no byte budget, cache 256, batch 8,
    {!Mirror_daemon.Supervisor.default_config}. *)

type error =
  | Admission_refused of string
      (** load shedding: session cap, queue overflow, or a query whose
          static peak-bytes envelope exceeds the budget *)
  | Breaker_open of float
      (** the session's breaker is open; retry after this many
          seconds *)
  | Bad_request of string  (** unparseable input *)
  | Exec_error of string  (** the database rejected the operation *)

val error_to_string : error -> string

type outcome =
  | Value of { value : Mirror_core.Value.t; cached : bool; version : int }
      (** query result, the version it was evaluated (or cached)
          under, and whether the result cache served it *)
  | Executed of { version : int; outcomes : string list }
      (** write batch committed; the statements' outcomes and the
          version that made them visible *)
  | Pinned of int  (** now reading version [n] until [Unpin] *)
  | Unpinned

type reply = (outcome, error) result

type request =
  | Query of string  (** Moa expression — snapshot-isolated read *)
  | Exec of string  (** Moa statement program — group-committed write *)
  | Pin  (** freeze the session's read view at the current head *)
  | Unpin  (** release it (queries follow the head again) *)

type t

type session

val local :
  ?config:config ->
  ?clock:Mirror_util.Clock.t ->
  ?seed:int ->
  ?bindings:(string * Mirror_core.Expr.t) list ->
  ?durable:Mirror_store.Durable.t ->
  Mirror_core.Mirror.t ->
  t
(** An in-process handle over a live database.  [clock] (default
    wall) feeds the breakers — tests pass a virtual clock and advance
    it instead of sleeping.  [bindings] are made available to every
    parsed request (the paper's [query] identifier).  [durable], when
    given, must be the store journaling [mirror]: commits then fsync
    through it (group commit).  Version 1 is snapshotted here. *)

val open_session : t -> (session, error) result
(** Admit a new session, or shed it ([Admission_refused]) at the cap. *)

val session_id : session -> int

val close_session : t -> session -> unit
(** Release the session: pending requests are dropped with a
    [Bad_request "session closed"] reply, its pin is released, and its
    slot frees up. *)

val submit : t -> session -> request -> (int, error) result
(** Enqueue one request, returning its request id (replies carry it).
    Refusals are synchronous: a closed session is [Bad_request], an
    open breaker is [Breaker_open], a full queue is
    [Admission_refused].  Nothing executes until {!step}/{!drain}. *)

val step : t -> bool
(** Process one unit of work: the next queued request in round-robin
    session order, or — when every queue is empty — commit the open
    write batch.  False when there is nothing left to do. *)

val drain : t -> unit
(** Run {!step} to quiescence: all queues empty, write batch
    committed, unpinned retired versions collected. *)

val replies : session -> (int * reply) list
(** Drain the session's outbox (delivery order = processing order). *)

val poll : session -> (int * reply) option
(** Take one reply, if any. *)

type stats = {
  sessions_open : int;
  sessions_peak : int;
  served : int;  (** requests processed to a reply *)
  refused : int;  (** structured refusals, submission- or run-time *)
  breaker_open_refusals : int;  (** the subset shed by open breakers *)
  cache : Qcache.stats;
  versions_live : int;
  versions_published : int;
  versions_collected : int;
  batches : int;  (** group commits *)
  writes : int;  (** write requests committed *)
}

val stats : t -> stats

val self_test : unit -> (unit, string) result
(** Scripted in-memory exercise of the serving guarantees (snapshot
    isolation across a commit, cache hits incl. via normalization,
    queue/budget shedding, breaker trip + virtual-clock recovery).
    Backs [mirror_cli serve --self-test]; [Error] says what broke. *)
