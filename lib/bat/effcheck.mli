(** Effect-and-aliasing verdicts over an analysed plan bundle, and the
    runtime effect sanitizer.

    The BAT algebra reads as if every operator were a pure producer of
    fresh columns, but the kernel is deliberately not: [reverse],
    [mirror], [mark], [project] and the calc family return BATs whose
    columns are {e physically shared} with their inputs, [Get] hands
    out the catalog's own columns, and the executor's memo table makes
    structurally equal subplans share one result.  That sharing is what
    makes the set-at-a-time design cheap — and what makes any mutation,
    or any effectful [Foreign] operator, hazardous.

    This module makes the contract checkable from both sides:

    - {b statically}: {!Milcheck}'s walk gives every node an effect
      signature and the provenance of its result columns; {!verdict}
      reads them to lint for hazards and to partition the DAG into
      provably independent groups — the static precondition for the
      domain-parallel executor;
    - {b dynamically}: a {!type-sanitizer} wraps the executor, tags
      every materialised column with its provenance (allocation site or
      catalog entry), checks each operator's observed aliasing is
      contained in its signature, and fingerprints columns so any
      in-place write is caught at {!finish}. *)

type verdict = {
  nodes : int;  (** Distinct DAG nodes after CSE over the bundle. *)
  shared_columns : int;
      (** Result-column slots aliasing the catalog or more than one
          node — benign unless written. *)
  partitions : int;
      (** Number of provably independent node groups: nodes in
          different partitions touch no common mutable state and their
          effects commute.  Equal to [nodes] for a pure plan. *)
  hazards : Milcheck.diag list;
      (** Mutation-under-sharing and undeclared-effect errors,
          effectful-op-under-memoization and non-commutable-reordering
          warnings. *)
  safe : Mil.t -> bool;
      (** [safe plan] holds when [plan] is a node of the analysed
          bundle whose whole partition is effect-free (no writes, no
          impure operators, no undeclared foreigns) — the static
          licence for the executor to run that node's operator
          data-parallel ({!Parkernel}).  Unknown plans are unsafe. *)
}

val verdict : Milcheck.t -> verdict
(** The verdict over the analysed bundle. *)

(** {1 Runtime sanitizer} *)

exception Violation of string
(** An operator's observed behaviour escaped its effect signature: a
    result column aliased memory the signature does not admit, or a
    tagged column's fingerprint drifted (in-place mutation). *)

type sanitizer

val sanitizer : Milcheck.env -> Mil.session -> sanitizer
(** A sanitizing wrapper over [session].  The session must have CSE
    enabled (the sanitizer's provenance map assumes the memo table's
    sharing; @raise Invalid_argument otherwise).  Catalog columns are
    tagged as they are first resolved through [Get]. *)

val exec : sanitizer -> Mil.t -> Bat.t
(** Evaluate the plan through the underlying session, checking every
    evaluated node bottom-up: each result column must be one of the
    declared alias sources or a genuinely fresh allocation, and the
    node's input columns must still match their fingerprints.
    Zero-length columns are exempt from aliasing checks (OCaml shares
    one atom for all empty arrays).
    @raise Violation on any escape. *)

val finish : sanitizer -> unit
(** Re-fingerprint every tagged column, catching in-place writes that
    happened after the writer's own inputs were checked.
    @raise Violation on drift. *)
