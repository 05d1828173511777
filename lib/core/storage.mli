(** The storage manager: logical extents on binary-relational storage.

    [define] registers an extent's Moa type; [load] materialises rows
    into the BAT catalog following the [BWK98] flattening (one BAT per
    atomic path, a link BAT per set nesting, extension-defined BATs for
    extension structures) and records the plan-shape whose leaves are
    catalog lookups.  Both evaluators work against this state: the
    flattening compiler starts from the plan shapes, the naive
    evaluator from the retained logical rows. *)

type t

val create : unit -> t
(** Empty storage with a fresh catalog. *)

val catalog : t -> Mirror_bat.Catalog.t
(** The underlying BAT catalog. *)

val define : t -> name:string -> Types.t -> (unit, string) result
(** Register an extent.  The type must be a well-labelled [SET<...>]
    whose extension structures are registered and well-formed.
    Redefinition of an existing name is an error. *)

val load : t -> name:string -> Value.t list -> (int list, string) result
(** (Re)populate an extent: type-checks the rows, materialises them
    (replacing any previous contents), and returns the element oids
    assigned to the rows, in order. *)

val insert : t -> name:string -> Value.t list -> (int list, string) result
(** Append rows to a loaded extent (copying implementation: the whole
    extent re-materialises, so previously returned element oids are
    invalidated).  Returns the oids of all rows, old first. *)

val delete_where : t -> name:string -> (Value.t -> bool) -> (int, string) result
(** Remove the rows satisfying the predicate; returns how many were
    removed.  Copying, like {!insert}. *)

val extents : t -> string list
(** Defined extents, sorted. *)

val extent_type : t -> string -> Types.t option
(** Declared type. *)

val extent_shape : t -> string -> Extension.planshape option
(** Flattened plan shape ([None] until loaded). *)

val extent_rows : t -> string -> Value.t list option
(** The logical rows with storage bindings applied ([None] until
    loaded) — the naive evaluator's view. *)

val extent_count : t -> string -> int
(** Loaded row count (0 when unloaded). *)

val space_find : t -> string -> Mirror_ir.Space.t option
(** Statistics space registered under a name (CONTREP paths). *)

val eval_env : t -> Extension.eval_env
(** Environment handed to naive extension evaluation and physical
    operators. *)

val analyze : t -> Extension.planshape -> Mirror_bat.Milcheck.t
(** The one analysis of a plan bundle, against the catalog, with
    [Foreign] operators resolved through {!Extension.foreign_decl}. *)

val fresh_query_base : t -> int
(** Allocate an oid range for query-time [mark]/[number] operators.
    Ranges are wide (2^32) and disjoint from storage oids. *)

val typecheck_env : t -> Typecheck.env
(** Schema view for the type checker. *)

(** {1 Copy-on-write snapshots (see {!Mirror_serve})} *)

type snapshot
(** A frozen version of the whole logical state: catalog bindings,
    extent schemas/shapes/rows and the oid allocator positions.  BATs
    and row lists are shared structurally (both are immutable once
    built), so taking one is O(#extents + #catalog names), never
    O(rows) — the copy-on-write version store of the serving tier. *)

val snapshot : t -> snapshot
(** Freeze the current state.  Later mutations of [t] (copying DML
    replaces catalog bindings and extent records; it never mutates
    row data in place) are invisible to the snapshot. *)

val of_snapshot : snapshot -> t
(** A fresh, fully queryable storage view of a snapshot.  The view
    never journals and its query-base allocator is private; use it for
    reads — defining or loading through it affects only the view. *)

(** {1 Restore (persisted databases — see {!Persist})} *)

val define_restored : t -> name:string -> Types.t -> (Extension.planshape, string) result
(** Register an extent whose BATs are already present in the catalog
    (following the deterministic materialisation naming) and rebuild
    its plan shape; extension structures rebuild side state (statistics
    spaces, indexes) through their [restore] hook.  The logical rows
    are not recovered here — reify them and call {!set_rows}. *)

val set_rows : t -> name:string -> Value.t list -> unit
(** Attach the logical rows of a restored extent (the naive evaluator's
    view). *)

val bump_store_base : t -> int -> unit
(** Ensure future storage oids are allocated above the given oid (call
    with the largest oid found in a loaded catalog). *)

(** {1 Durability journal (see {!Mirror_store.Durable})} *)

type journal_record =
  | J_define of string * Types.t  (** extent DDL *)
  | J_replace of string * Value.t list
      (** full post-state of an extent after a copying DML statement
          ([load]/[insert]/[delete_where] all journal the complete new
          contents, which makes redo trivially idempotent) *)

val set_journal : t -> (journal_record -> unit) option -> unit
(** Install (or clear) the journal hook.  It fires after a mutation
    has applied cleanly; the restore path ({!define_restored},
    {!set_rows}) never journals. *)

val store_base : t -> int
(** Current storage-oid allocator position.  Checkpoints persist it so
    a recovered database allocates the same oids as the original run
    (the catalog alone under-approximates it after deletes). *)
