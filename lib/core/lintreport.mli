(** Structured lint results over queries — the shared backend of the
    CLI's [lint] command (text and [--json] output) and the test
    suite's schema checks.

    One {!query} record carries everything the analyzers said about one
    query: the Moa-level shape lint ({!Moacheck}) and, from the
    optimised MIL bundle's one analysis, the envelope lint
    ({!Mirror_bat.Milcheck}), the effect-and-aliasing hazards and
    parallelism verdict — distinct nodes, safe partitions, shared
    column slots — ({!Mirror_bat.Effcheck}) and the resource-bound
    warnings and footprint summary ({!Mirror_bat.Boundcheck}). *)

type query = {
  src : string;  (** The query text as given. *)
  error : string option;
      (** A pipeline-stage failure (parse, or any {!Plancheck.vet}
          stage); when set, the diagnostic lists are empty. *)
  moa : Moaprop.diag list;
  mil : Mirror_bat.Milcheck.diag list;
  eff : Mirror_bat.Milcheck.diag list;  (** Effcheck hazards. *)
  bound : Mirror_bat.Milcheck.diag list;  (** Boundcheck warnings. *)
  nodes : int;  (** Distinct plan-DAG nodes after CSE. *)
  partitions : int;  (** Provably independent node groups. *)
  shared_columns : int;
  est_bytes : int;  (** Estimated resident footprint (all DAG nodes). *)
  peak_bytes : int option;
      (** Sound upper bound on the resident footprint; [None] when an
          undeclared foreign leaves the plan unbounded. *)
  reclaim_bytes : int;
      (** Estimated peak under eager last-use reclamation (liveness
          simulation over the DAG schedule). *)
  failed : bool;
      (** [error] set, any error-severity [moa]/[mil] diagnostic, or
          {e any} Effcheck hazard — the effect layer is strict so the
          corpus gate catches new hazards of every severity; the bound
          layer only warns (undeclared foreign rows degrade to
          unbounded without failing). *)
}

type t = { queries : query list; failures : int }

val check : Storage.t -> src:string -> Expr.t -> query
(** Vet and lint one parsed query ([src] is carried through for
    reporting). *)

val check_src : Storage.t -> string -> query
(** Parse then {!check}; a parse failure becomes the [error] field. *)

val sweep : Storage.t -> string list -> t
(** {!check_src} over a query list, counting failures. *)

val to_json : t -> Mirror_util.Jsonx.t
(** Machine-readable report, schema ["mirror-lint/v2"] — additive over
    v1: [{ schema; layers: [{ name ("moa"|"mil"|"eff"|"bound"); schema
    (per-layer tag, e.g. "mirror-lint-bound/v1") }]; checked; failures;
    queries: [{ src; failed; error; nodes; partitions; shared_columns;
    est_bytes; peak_bytes (int or null); reclaim_bytes; diagnostics:
    [{ layer ("moa"|"mil"|"eff"|"bound"); severity
    ("error"|"warning"|"hint"); path; op; message }] }] }]. *)

val print_query : query -> unit
(** The CLI's human-readable rendering: an [ok]/[FAIL] line followed by
    one indented [moa:]/[mil:]/[eff:]/[bound:] line per diagnostic. *)
