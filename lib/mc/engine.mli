(** Parallel, reduction-aware model-checking engine — the repository's
    one explorer. [`Parallel j] (the default at [j = 1]) explores with
    [j] domains over per-worker work-stealing deques and a
    fingerprint-sharded visited set, optionally under partial-order
    reduction ([por], {!Por}) and process-id symmetry reduction
    ([symmetry], {!Symmetry}). See the implementation header for the
    count guarantees across domain counts and the thread-safety
    contract of the hooks; [Fuzz.Reference] is the lane-free explorer
    the parity suites check it against. *)

open Memsim

(** The domain count; [j >= 1]. *)
type engine = [ `Parallel of int ]

(** A frontier-consistent cut of a [`Parallel 1] exploration, as plain
    data: every pending task as its path from the root (in pop order,
    in-hand task first), the visited set's fingerprints, the counters
    at the cut, and the violations/deadlocks found so far (as
    message/path pairs). Resuming from a checkpoint replays each
    pending path deterministically and continues with identical
    exploration order, so a resumed run finishes with the same verdict
    and the {e exact} same cumulative state/transition counts as the
    uninterrupted run. *)
type checkpoint = {
  ck_states : int;
  ck_transitions : int;
  ck_bound_hits : int;
  ck_pending : Exec.elt list list;
  ck_visited : Fingerprint.t list;
  ck_violations : (string * Exec.elt list) list;
  ck_deadlocks : Exec.elt list list;
}

(** Explore every interleaving of op and commit steps from a
    configuration, deduplicating normalized states (labels flushed).
    [monitor] folds over the steps of every explored edge (e.g.
    critical-section occupancy from notes); its state must be a
    function of the state key, or deduplication could skip
    transitions. [check] is an invariant evaluated once per claimed
    state; [Some msg] records a violation with the reproducing
    schedule. [on_final] fires once per claimed quiescent state.
    [max_states] (default 1,000,000; at least 1, else
    [Invalid_argument]) and [max_depth] (default 100,000) bound the
    run, which is then marked truncated; [max_violations]
    (default 3) stops it too; [max_deadlocks] caps how many deadlock
    paths are kept (default: all).

    [engine] defaults to [`Parallel 1]: one domain, deterministic.
    [check] and [monitor] must be pure; [on_final] is serialized
    internally. With [por] the states/transitions counts
    drop but all deadlocks, quiescent states and note-driven monitor
    verdicts are preserved. With [symmetry] the visited set is keyed
    on canonical (orbit-minimal) fingerprints, so one representative
    per process-id orbit is expanded — sound for pid-symmetric
    workloads (see {!Symmetry}); counterexample paths are recorded
    verbatim and replay without de-canonicalization.
    [expected_states] pre-sizes the visited set ({!Visited.create});
    [report_visited] receives the visited set's occupancy statistics
    when the run finishes.

    [tel] plugs a {!Telemetry.Hub.t} into the run: the engine
    registers its counters (expansions, children, dedup_hits,
    por_prunes, sym_remaps, plus the frontier's steals/sleeps) and
    live gauges (states, transitions, frontier, visited,
    visited_skew) on it, so a {!Telemetry.Sampler} can stream
    progress while the run is live. The hub must have at least as
    many worker slots as [`Parallel j] has domains. Without [tel]
    the same counters are bumped on a private hub nobody reads —
    plain int adds on pre-allocated padded cells, the zero-cost-off
    discipline guarded by bench-smoke. Counter totals at
    [`Parallel 1] are exactly reproducible run to run.

    [reorder_bound] explores the reorder-bounded under-approximation:
    an edge whose successor carries more than [K] reorderings in flight
    (pending writes overtaken by a later op of their owner or by a
    younger commit — {!Memsim.Config.reorders_in_flight}) is pruned and
    counted in [stats.bound_hits]. [K = 0] restricts buffered models
    to their SC-consistent executions; a [K] at least the maximum total
    buffer occupancy never prunes, so [bound_hits = 0] on a completed
    run certifies saturation: the verdict is exact. Oldest-first
    drains never charge, so a bound introduces no new deadlocks. View
    models have no buffer to meter and reject a bound
    ([Invalid_argument]). The per-process overtaken-flag bitsets are
    mixed into the visited key ({!Fingerprint.budget_term}), so
    bounded dedup is exact for the bounded transition system. Under
    [por], an over-budget ample step falls back to the full filtered
    expansion — the combination stays an under-approximation whose
    saturation certificate ([bound_hits = 0] on a completed run) is
    still exact. [reorder_bound] and [symmetry] are mutually exclusive
    (raises [Invalid_argument]): the budget term is keyed by raw pids,
    which orbit canonicalization scrambles.

    [checkpoint:(every, emit)] calls [emit] with a
    frontier-consistent {!checkpoint} each time roughly [every] more
    states have been claimed since the last cut; [resume] restores one
    and continues the exploration exactly where it stopped. Both
    require [`Parallel 1] (the only configuration where the pending
    cut is exact) and raise [Invalid_argument] otherwise; [resume] is
    exclusive with internal seeding, and the checkpoint must have been
    taken from a run with the same configuration, bounds and
    reductions — restored visited fingerprints are only valid under
    the same keying. *)
val run :
  ?tel:Telemetry.Hub.t ->
  ?engine:engine ->
  ?por:bool ->
  ?symmetry:bool ->
  ?expected_states:int ->
  ?report_visited:(Visited.stats -> unit) ->
  ?max_states:int ->
  ?max_depth:int ->
  ?max_violations:int ->
  ?max_deadlocks:int ->
  ?reorder_bound:int ->
  ?checkpoint:int * (checkpoint -> unit) ->
  ?resume:checkpoint ->
  ?check:(Config.t -> string option) ->
  monitor:('m -> Step.t -> ('m, string) Stdlib.result) ->
  init:'m ->
  ?on_final:(Config.t -> 'm -> unit) ->
  Config.t ->
  'm Explore.result

(** Exploration without a monitor. *)
val run_plain :
  ?tel:Telemetry.Hub.t ->
  ?engine:engine ->
  ?por:bool ->
  ?symmetry:bool ->
  ?expected_states:int ->
  ?max_states:int ->
  ?max_depth:int ->
  ?max_deadlocks:int ->
  ?reorder_bound:int ->
  ?on_final:(Config.t -> unit) ->
  Config.t ->
  unit Explore.result

(** Reachable quiescent-state projections under [observe], sorted, plus
    the exploration result. (Under [symmetry] only orbit
    representatives are observed — keep it off when per-pid outcome
    projections matter, e.g. litmus assertions.) *)
val reachable_outcomes :
  ?tel:Telemetry.Hub.t ->
  ?engine:engine ->
  ?por:bool ->
  ?symmetry:bool ->
  ?max_states:int ->
  ?max_depth:int ->
  ?reorder_bound:int ->
  observe:(Config.t -> 'a) ->
  Config.t ->
  'a list * unit Explore.result

(** One level of an iterative-deepening run: the bound explored and
    what that level alone contributed. [states] counts only states
    newly claimed at this level (levels sum to the cumulative count);
    [transitions] may double-count edges re-executed while re-expanding
    the previous level's boundary states. *)
type deepen_level = {
  bound : int;
  states : int;
  transitions : int;
  bound_hits : int;
  violations : int;
}

type 'm deepen_result = {
  result : 'm Explore.result;
      (** cumulative states/transitions/bound_hits; violations,
          deadlock accumulation and truncation from the level that
          ended the search *)
  final_bound : int;
  saturated : bool;
      (** the final level completed with zero bound hits: the explored
          union equals the unbounded reachable set, so the verdict is
          exact — a clean [OK] needs no "subset" qualifier *)
  levels : deepen_level list;  (** ascending bound order *)
}

(** Iterative deepening over the reorder bound: run at [bound_from]
    (default 0, the SC-consistent core), and while the level is
    violation-free, complete, and hit the bound somewhere, widen by
    [bound_step] and {e resume} — the visited set is shared across
    levels (keys carry the budget term, so earlier claims stay valid)
    and only the boundary states (those with a pruned edge) are
    re-seeded. Stops at the first violating level, at saturation, at
    truncation, or at [max_bound]. [max_states] caps the {e cumulative}
    state count (at least 1, else [Invalid_argument]). Always
    [`Parallel jobs] (default 1); [symmetry] is not available (see
    {!run}). *)
val deepen :
  ?tel:Telemetry.Hub.t ->
  ?jobs:int ->
  ?por:bool ->
  ?expected_states:int ->
  ?report_visited:(Visited.stats -> unit) ->
  ?max_states:int ->
  ?max_depth:int ->
  ?max_violations:int ->
  ?max_deadlocks:int ->
  ?bound_from:int ->
  ?bound_step:int ->
  ?max_bound:int ->
  ?check:(Config.t -> string option) ->
  monitor:('m -> Step.t -> ('m, string) Stdlib.result) ->
  init:'m ->
  ?on_final:(Config.t -> 'm -> unit) ->
  Config.t ->
  'm deepen_result

(** Deepening counterpart of {!reachable_outcomes}: outcomes accumulate
    across levels. *)
val deepen_outcomes :
  ?tel:Telemetry.Hub.t ->
  ?jobs:int ->
  ?por:bool ->
  ?max_states:int ->
  ?max_depth:int ->
  ?bound_from:int ->
  ?bound_step:int ->
  ?max_bound:int ->
  observe:(Config.t -> 'a) ->
  Config.t ->
  'a list * unit deepen_result
