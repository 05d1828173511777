(** Failure injection for the distributed architecture.

    An open multi-party architecture must tolerate flaky parties; the
    orchestrator's retry/dead-letter behaviour is tested by wrapping
    daemons with these combinators. *)

val flaky : Mirror_util.Prng.t -> rate:float -> Daemon.t -> Daemon.t
(** Fails (raises) with probability [rate] per message, otherwise
    behaves like the wrapped daemon. *)

val broken : Daemon.t -> Daemon.t
(** Always fails. *)

val switched : (unit -> bool) -> Daemon.t -> Daemon.t
(** Fails while the predicate returns true — outage windows for the
    chaos suite (e.g. keyed to the orchestrator's virtual clock). *)

val breakable : Daemon.t -> Daemon.t * (bool -> unit)
(** A daemon with a health switch: starts {e down} (always failing);
    call the returned function with [true] to heal it, [false] to
    break it again — the redelivery scenario's "the party came back
    up". *)

val crashing : at_call:int -> Daemon.t -> Daemon.t
(** Raises {!Crash} on exactly the [at_call]-th handled message (then
    behaves normally) — the orchestrator treats this as a process
    death, not a retryable daemon failure.  Calls are counted across
    every worker process forked after the wrapper was made, so the
    crash happens once even when it kills the process that ran it. *)

val fails_after_writing : at_call:int -> Daemon.t -> Daemon.t
(** Runs the real handler on every message, then raises on exactly
    the [at_call]-th (counted like {!crashing}) — a daemon failure
    that leaves partial writes behind in the replica it ran on. *)

val failure_message : string
(** The message carried by injected failures (stable for tests). *)

(** {1 Crash points (durability testing)}

    Process-wide simulated crashes, disarmed by default, used by the
    recovery fuzzer (see [test/test_recovery.ml]) to kill the
    durability layer mid-write.  A "crash" is the {!Crash} exception
    escaping the write path — the process survives, but the on-disk
    state is whatever the torn write left behind, exactly as after
    [kill -9]. *)

exception Crash of string
(** Raised by {!crash_hit} at an armed point, and by fault-aware
    writers when {!write_allowance} truncates a write. *)

val reset_faults : unit -> unit
(** Disarm everything (call in test teardown). *)

val arm_crash : string -> after:int -> unit
(** [arm_crash point ~after] makes the [after+1]-th {!crash_hit} on
    [point] raise {!Crash}.  Only one point is armed at a time. *)

val crash_hit : string -> unit
(** Declare a crash point; raises {!Crash} when armed and due.
    Checkpoint protocol steps call this ([checkpoint.snapshot],
    [checkpoint.rename], [checkpoint.meta], [checkpoint.commit],
    [checkpoint.gc]). *)

val arm_torn_write : bytes:int -> unit
(** Allow [bytes] more bytes to reach disk through fault-aware
    writers, then tear the write that exceeds the budget. *)

val write_allowance : int -> int option
(** [write_allowance n] asks to write [n] bytes: [None] means write
    them all; [Some k] (with [k < n]) means write exactly the first
    [k] bytes and raise {!Crash} — the caller must honour this.
    Disarms the budget when it tears. *)
