(** Database persistence.

    A Mirror database saves as a directory of two human-readable files:

    - [schema.moa] — one [define N as T;] statement per extent, in the
      paper's DDL syntax (re-parsed on load, so the schema file is also
      valid CLI input);
    - [catalog.bats] — the full BAT catalog snapshot
      ({!Mirror_bat.Catalog.save_file}).

    Loading rebuilds everything else: plan shapes follow the
    deterministic materialisation naming, extension side state
    (CONTREP statistics spaces, inverted indexes) is reconstructed by
    the extensions' [restore] hooks, and the logical rows for the naive
    evaluator are reified from the BATs.  Queries against the loaded
    database are bit-for-bit equivalent to the original. *)

val save : Storage.t -> dir:string -> (unit, string) result
(** Write [schema.moa] and [catalog.bats] into [dir] (created if
    missing). *)

val load : dir:string -> (Storage.t, string) result
(** Rebuild a storage manager from a saved directory. *)
