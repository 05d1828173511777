(** Static resource bounds of MIL plan bundles: "how much memory can
    this query ever need".

    {!Milcheck}'s walk gives every distinct node its sound row
    interval, a point row estimate inside it, and per-cell byte widths
    for both columns — 8 bytes per cell for every fixed-width
    representation, 8 plus the tracked payload bound for strings,
    matching {!Column.bytes} on the measured side.  This module sums
    them into whole-bundle footprints:
    {ul
    {- {!bounds.resident} — the sum over all distinct DAG nodes, the
       envelope of the real executor, which memoises every intermediate
       for the session's lifetime ({!Mil.resident_bytes} is the
       measured counterpart it must bound from above);}
    {- {!bounds.reclaim} — a liveness simulation of the same evaluation
       order under last-use reference counting (each intermediate freed
       once its last consumer has run, roots pinned), the peak a
       reclaiming executor would reach — always ≤ resident.}}

    A [Foreign] operator whose declaration has no row rule leaves the
    bundle unbounded, with a [Warning].  {!admission} is the bound the
    {!Mil.session} admission gate consults per root. *)

type footprint = {
  fp_lo : int;  (** Sound lower bound, bytes (slots only, payload-free). *)
  fp_est : int;  (** Point estimate, bytes. *)
  fp_hi : int option;  (** Sound upper bound, bytes; [None] = unbounded. *)
}
(** A bytes envelope for a whole plan (or bundle). *)

type bounds = {
  resident : footprint;
      (** Memo residency: the sum of every distinct node's size.
          [fp_lo] bounds the nominal (un-deduplicated) sum; physical
          column sharing can only push the measured figure below it,
          never above [fp_hi]. *)
  reclaim : footprint;
      (** Peak of the last-use-refcount liveness simulation over the
          same evaluation order, roots held to the end. *)
  diags : Milcheck.diag list;
      (** A [Warning] per foreign operator without a row rule. *)
}

val footprints : Milcheck.t -> bounds
(** The footprints of the whole analysed bundle. *)

val admission : Milcheck.t -> Mil.t -> (int * int option) option
(** [(resident est, resident hi)] of one root's sub-DAG, read from the
    bundle's table — equal to the residency of analysing the root
    alone, since facts are context-free.  [None] when the root is not
    in the bundle or its sub-DAG has verifier errors (the admission
    gate then refuses, fail-closed). *)

val bat_bytes : Bat.t -> int
(** {!Column.bytes} over both columns — the measured size of one
    materialised BAT. *)

val bats_bytes : Bat.t list -> int
(** Total measured bytes of a set of BATs, physically shared columns
    counted once (the executor's reverse/mirror results alias their
    input's arrays). *)
