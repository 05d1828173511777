(** Per-daemon health supervision: circuit breakers.

    An open architecture must keep working when a party is flaky,
    slow, or down.  The supervisor tracks one breaker per daemon:

    - [Closed] — healthy; deliveries flow.
    - [Open until] — the daemon failed repeatedly; deliveries are
      withheld until the (injectable) clock reaches [until].  The
      backoff grows exponentially with each consecutive trip, with
      deterministic jitter drawn from a seeded {!Mirror_util.Prng}.
    - [Half_open] — the backoff elapsed; the orchestrator probes with
      a single delivery.  Success closes the breaker (and resets the
      backoff); failure re-opens it with a doubled backoff.

    Time comes from a {!Mirror_util.Clock}, so tests drive breaker
    transitions by advancing a virtual clock — never by sleeping. *)

type state = Closed | Open of float  (** reopen deadline *) | Half_open

type config = {
  failure_threshold : int;
      (** Consecutive failures that trip a closed breaker. *)
  base_backoff : float;  (** Seconds of the first open window. *)
  max_backoff : float;  (** Backoff growth cap. *)
  jitter : float;
      (** Fractional jitter applied to each window (0 = none); drawn
          deterministically from the supervisor's seed. *)
}

val default_config : config
(** threshold 3, base 4s, cap 60s, jitter 0.2. *)

type t

val create : ?config:config -> clock:Mirror_util.Clock.t -> seed:int -> unit -> t

val set_listener : t -> (string -> state -> unit) option -> unit
(** Observe transitions (daemon name, new state) — the orchestrator
    forwards them to its trace as ["breaker"] events. *)

val state : t -> string -> state
(** Current breaker state, performing the [Open] → [Half_open]
    transition first when the reopen deadline has passed. *)

val allow : t -> string -> bool
(** May a delivery be attempted now?  True in [Closed] and
    [Half_open] (the caller limits half-open probing to one
    delivery), false while [Open]. *)

val success : t -> string -> unit
(** Record a handled delivery: closes the breaker and resets the
    consecutive-failure count and backoff. *)

val failure : t -> string -> unit
(** Record a failed delivery: trips a closed breaker at the
    threshold; re-opens a half-open breaker with a doubled window. *)

val reset : t -> string -> unit
(** Force-close (operator heal signal, e.g. before redelivery). *)

val trip_now : t -> string -> unit
(** Force-open immediately, bypassing the failure threshold — the
    recovery path for hard failures such as the hosting worker
    process dying.  The backoff window grows per trip as usual. *)

val probe : t -> string -> unit
(** Force [Half_open]: allow exactly one probe delivery whose outcome
    closes or re-opens the breaker.  No-op if already half-open. *)

val failures : t -> string -> int
(** Current consecutive-failure count. *)

val waiting_until : t -> string -> float option
(** The reopen deadline while [Open], else [None] — lets the
    orchestrator decide whether advancing time can still unblock
    work. *)

val health : t -> (string * state * int) list
(** (daemon, state, consecutive failures) for every daemon seen,
    sorted by name. *)

val state_to_string : state -> string
(** ["closed"], ["open(until=<t>)"], ["half-open"]. *)
