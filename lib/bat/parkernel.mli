(** Morsel scheduling on OCaml 5 domains, which every set-at-a-time
    operator runs through.

    The kernel is written once, in {!Bat}, over row ranges [lo, hi).
    {!ranges} is the one entry point: with no pool current it calls the
    range function once over the whole input, so the sequential kernel
    is the one-range case of the parallel one.  Under {!with_pool} it
    splits the input into morsels sized from the rows in hand, runs
    them on the pool and returns the parts in morsel order; the operator merges them with the same
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
    their own pools and bound the morsel geometry with the two row
    knobs. *)

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

(** {1 The current pool and ranges} *)

val with_pool : pool -> (unit -> 'a) -> 'a
(** Run the thunk with [pool] current on this domain. *)

val current : unit -> pool option
(** This domain's current pool; always [None] on worker domains. *)

val ranges : int -> (int -> int -> 'a) -> 'a array
(** [ranges n f] is [[| f 0 n |]] — one part, run inline — when no pool
    is current on this domain or [n] is below {!set_min_rows}' threshold
    (or [n = 0]).  Otherwise it partitions [0..n-1] into morsels of
    [min (morsel_size ()) (ceil (n / d))] rows, [d] the current pool's
    {!size}, runs [f lo hi] per morsel on the pool (hi exclusive) and
    returns the parts in range order, so a caller that concatenates or
    folds them left to right sees the sequential order.  If range
    functions raise, the exception of the lowest-numbered failing
    morsel is re-raised after the join — the one a sequential
    left-to-right loop would surface first.  This is the only place
    morsel geometry is decided: it depends on the rows in hand, never
    on a plan's estimates. *)

val fill : int -> (int -> int -> unit) -> unit
(** {!ranges} for range functions that write disjoint slices of a
    preallocated output. *)

(** {1 Pool-lifetime statistics} *)

type totals = {
  t_jobs : int;  (** Split {!ranges} calls (jobs of at least one morsel). *)
  t_morsels : int;
  t_busy : float;  (** Summed per-morsel wall seconds (all domains). *)
  t_wall : float;  (** Caller-observed wall seconds. *)
}

val totals : pool -> totals
(** Accumulated since [create]; read from the owning domain only.  The
    executor attributes an operator's parallel work from the growth of
    these across its call. *)
