(** Morsel scheduling on OCaml 5 domains, which every set-at-a-time
    operator runs through.

    The kernel is written once, in {!Bat}, over row ranges [lo, hi).
    {!ranges} is the one entry point: with no pool current it calls the
    range function once over the whole input, so the sequential kernel
    is the one-range case of the parallel one.  Under {!with_pool} it
    splits the input into morsels, runs them on the pool and returns
    the parts in morsel order; the operator merges them with the same
    associative combiners it uses within a range (modular int
    arithmetic, [Float.min]/[Float.max]).  That is what makes every
    result bitwise the sequential one at any domain count and morsel
    size.  Operators whose merge would not be exact (float
    [Sum]/[Avg]/[Prod]) never split.

    {b Domain ownership.}  A {!type-pool} owns [size - 1] worker
    domains; the calling domain is the remaining participant.  The
    current pool is domain-local: worker domains never see one, and the
    calling domain hides it while it drains morsels, so a range
    function that reaches another operator runs that operator inline
    and never re-enters the pool.  Range functions must not touch a
    {!Mirror_util.Trace}, which is not domain-safe; per-morsel timings
    land in preallocated slots and accumulate into {!totals}.

    {b Licence scope.}  This module never inspects effect verdicts.
    The executor ({!Mil}) installs the pool with {!with_pool} around a
    single node's operator call, after the node's inputs were
    evaluated, and only when {!Effcheck} proved the node safe; built-in
    and foreign operators pass the same gate. *)

type pool

val create : int -> pool
(** [create n] spawns a pool of total size [max 1 n] (i.e. [n - 1]
    worker domains plus the calling domain). *)

val shutdown : pool -> unit
(** Stop and join the workers.  Idempotent. *)

val size : pool -> int
(** Total domains participating in this pool's jobs (workers + caller). *)

(** {1 Global configuration}

    The CLI's [--domains N] sets the process-wide default; tests inject
    their own pools and morsel geometry. *)

val set_domains : int -> unit
(** Set the default pool size (clamped to [1..64]).  Shuts down any
    existing default pool; [1] disables parallel execution. *)

val domains : unit -> int
(** The configured default pool size. *)

val default_pool : unit -> pool option
(** The lazily-created process-wide pool, [None] when [domains () <= 1].
    Shut down automatically at exit. *)

val set_morsel_size : int -> unit
(** Rows per morsel (clamped to [>= 1]; default 16384). *)

val morsel_size : unit -> int

val set_min_rows : int -> unit
(** Inputs smaller than this stay sequential (default 2048; tests set 0
    to force tiny BATs through the parallel path). *)

val min_rows : unit -> int

val with_morsel_size : int -> (unit -> 'a) -> 'a
(** [with_morsel_size m f] runs [f] with the morsel size dynamically
    overridden to [max 1 m], restoring the previous size afterwards
    (exception-safe).  The executor wraps a single operator dispatch in
    this when it has a {!morsel_for} hint; the override is read once on
    the calling domain when the operator fixes its morsel geometry, so
    nesting and sequential re-entry are safe. *)

val morsel_for : domains:int -> int -> int
(** [morsel_for ~domains rows] is the estimate-derived morsel size for
    an operator expected to process [rows] rows on a [domains]-wide
    pool: one morsel per domain, clamped below by a per-domain share of
    {!min_rows} and above by the configured {!morsel_size} — so small
    (but admissible) inputs spread across the pool instead of landing
    in a single default-sized morsel. *)

(** {1 Scheduling} *)

val run_tasks : pool -> int -> (int -> unit) -> unit
(** [run_tasks p m task] runs [task 0 .. task (m-1)], possibly
    concurrently, and returns once all completed.  Tasks must write
    only to disjoint caller-owned slots.  If tasks raise, the exception
    of the lowest-numbered failing task is re-raised after the join —
    the same exception a sequential left-to-right loop would surface
    first. *)

val map_ranges : pool -> int -> (int -> int -> 'a) -> 'a array
(** [map_ranges p n f] partitions [0..n-1] into {!morsel_size} ranges
    and returns [f lo hi] per range (hi exclusive), in range order. *)

(** {1 The current pool and ranges} *)

val with_pool : pool -> (unit -> 'a) -> 'a
(** Run the thunk with [pool] current on this domain. *)

val current : unit -> pool option
(** This domain's current pool; always [None] on worker domains. *)

val ranges : int -> (int -> int -> 'a) -> 'a array
(** [ranges n f] is [[| f 0 n |]] — one part, run inline — when no pool
    is current on this domain or [n < min_rows ()] (or [n = 0]);
    otherwise {!map_ranges} over the current pool.  Parts come back in
    range order, so a caller that concatenates or folds them left to
    right sees the sequential order. *)

val fill : int -> (int -> int -> unit) -> unit
(** {!ranges} for range functions that write disjoint slices of a
    preallocated output. *)

(** {1 Pool-lifetime statistics} *)

type totals = {
  t_jobs : int;  (** {!run_tasks} jobs with at least one task. *)
  t_morsels : int;
  t_busy : float;  (** Summed per-morsel wall seconds (all domains). *)
  t_wall : float;  (** Caller-observed wall seconds. *)
}

val totals : pool -> totals
(** Accumulated since [create]; read from the owning domain only.  The
    executor attributes an operator's parallel work from the growth of
    these across its call. *)
