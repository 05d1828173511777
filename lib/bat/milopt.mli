(** Physical plan rewriting.

    Peephole simplifications applied to {!Mil} plans before execution.
    They complement the logical optimizer and the executor's CSE: the
    flattening compiler freely composes context transformations, which
    leaves patterns like [reverse (reverse x)] in the emitted plans.

    Rules (applied bottom-up to a fixpoint):
    - [reverse (reverse x)] → [x]
    - [mirror (mirror x)] and [reverse (mirror x)] → [mirror x]
    - [semijoin (semijoin x s) s] → [semijoin x s]; [semijoin x x] → [x]
    - [kunion x x] → [x]; [unique (unique x)] → [unique x];
      appending an empty literal is dropped
    - [slice (sort_tail x) 0 n] → [topn x n]
    - [join (reverse (number_head x b)) (number_tail x b)] → [x] (a
      set's link and elem split from one pair BAT, joined back)
    - constant literal calculations fold into literals *)

val rewrite : Mil.t -> Mil.t
(** The simplified plan (semantically identical).  The result is a
    stable fixpoint: [rewrite (rewrite p) = rewrite p] — every rule
    strictly shrinks the plan, so iteration runs uncapped until no rule
    fires. *)

val rewrite_count : Mil.t -> Mil.t * int
(** Also report how many rule applications fired. *)
