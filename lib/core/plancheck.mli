(** Bundle-level plan checking over {!Mirror_bat.Milcheck}'s one
    analysis per bundle ({!Storage.analyze}).

    The differential checker ({!differential}) asserts that
    [Optimize.rewrite] and [Milopt.rewrite] preserve every plan's
    inferred type/shape/cardinality envelope.  {!vet} statically vets a
    whole query (used by the CLI [lint] command and the bench
    workloads). *)

val differential :
  ?specialize:bool -> Storage.t -> Expr.t -> (unit, string) result
(** [differential storage expr] compiles [expr] before and after
    [Optimize.rewrite], checks the two bundles have the same shape
    skeleton with pairwise-compatible envelopes, and checks every plan
    stays envelope-compatible with its [Milopt.rewrite] image.  Each
    bundle is analysed once. *)

type vetted = {
  plans : int;  (** Root plans of the bundle's one {!Mirror_bat.Milcheck} analysis. *)
  envelope_checks : int;  (** Envelope comparisons made by {!Moacheck.validate}. *)
  verdict : Mirror_bat.Effcheck.verdict;
      (** The effect verdict over that analysis; its hazards hold no
          error (warnings may remain). *)
}

val vet : ?specialize:bool -> Storage.t -> Expr.t -> (vetted, string) result
(** Full static vetting of one query: typecheck, {!Moacheck.verify} the
    logical envelope, compile, then — all from one analysis of the
    bundle — verify it, fail on {!Mirror_bat.Effcheck} hazard errors
    and run {!Moacheck.validate} (translation validation of the
    flattening); finally the differential checker.  [Ok] means every
    stage passed and reports what the analyses covered. *)

val diags_to_string : Mirror_bat.Milcheck.diag list -> string
(** Diagnostics joined with ["; "]. *)
