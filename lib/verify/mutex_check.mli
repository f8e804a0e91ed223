(** Exhaustive verification of lock properties at small scope: mutual
    exclusion (label monitor + lost-update oracle on a critical-section
    counter), deadlock-freedom, and termination, with counterexample
    schedules on failure. *)

open Memsim

(** Reorder-bound mode: a fixed budget, or iterative deepening from 0
    until violation or saturation ({!Mc.deepen}). *)
type bound_mode = [ `K of int | `Deepen ]

type verdict = {
  lock_name : string;
  model : Memory_model.t;
  nprocs : int;
  rounds : int;
  holds : bool;
  symmetry : bool;
      (** checked under pid-symmetry reduction: exploration was an
          under-approximation (see {!check}), so [holds = true] means
          "no violation found in the symmetry-reduced subset" — printed
          by {!pp_verdict} as ["OK (symmetry-reduced subset)"] *)
  reorder_bound : int option;
      (** the (final) reorder bound checked under; [None] = unbounded *)
  bound_exact : bool;
      (** the verdict is exact despite a bound: a violation was found,
          or the run completed with zero bound hits (saturation). A
          clean pass with [bound_exact = false] prints as
          ["NO VIOLATION FOUND (reorder-bound K subset)"], never plain
          ["OK"]. Always [true] unbounded. *)
  deepen_levels : Mc.deepen_level list;
      (** per-level records when [`Deepen] ran; else empty *)
  me_violation : Exec.elt list option;  (** schedule reaching an overlap *)
  deadlock : Exec.elt list option;
  lost_update : bool;
  stats : Explore.stats;
}

val pp_verdict : verdict Fmt.t

(** A clean verdict that does not establish the property — the run was
    truncated, or checked under a reorder bound it did not saturate —
    which {!pp_verdict} prints as ["NO VIOLATION FOUND"]. *)
val inconclusive : verdict -> bool

(** Critical-section occupancy monitor over ["cs:enter"]/["cs:exit"]
    notes; errors on overlap. *)
val cs_monitor : Pid.Set.t -> Step.t -> (Pid.Set.t, string) result

(** The standard checking workload: [rounds] passages per process, each
    critical section incrementing a shared counter. Returns the lock,
    the counter register, and the initial configuration. Raises
    [Invalid_argument] when [rounds < 1]. *)
val workload :
  model:Memory_model.t -> Locks.Lock.factory -> nprocs:int -> rounds:int ->
  Locks.Lock.t * Reg.t * Config.t

(** [engine] sets the domain count: [`Parallel j] runs the [Mc]
    engine over [j] domains ([`Parallel 1] by default), optionally with
    partial-order reduction ([por]) and/or process-id symmetry
    reduction ([symmetry]). The occupancy monitor is note-driven, so POR
    preserves its verdicts while visiting fewer states. Symmetry does
    {e not}: the lock workloads are only near-symmetric (pid-dependent
    tie-breaks live in program text, outside the canonical key), so
    under [symmetry] the run explores a subset of the reachable state
    classes — any violation reported is real, but a clean pass is an
    under-approximate verdict, flagged in {!verdict.symmetry} and
    printed as ["OK (symmetry-reduced subset)"]. [expected_states]
    pre-sizes the engine's visited set; [report_visited] receives its
    occupancy statistics when the run finishes. [tel] plugs a
    {!Telemetry.Hub.t} into the run for live progress and NDJSON stats
    (see {!Mc.run}).

    [reorder_bound] checks the reorder-bounded under-approximation:
    [`K k] with a fixed budget (the verdict records whether the run
    certified saturation and is therefore exact), [`Deepen] with
    iterative deepening from 0 ({!Mc.deepen}). Mutually exclusive with
    [symmetry] (raises [Invalid_argument]).

    [checkpoint]/[resume] pass through to {!Mc.run} (periodic
    frontier-consistent cuts and exact continuation; [`Parallel 1]
    only) — the serve daemon's long-check lifeline. Not available
    under [`Deepen] (raises [Invalid_argument]): deepen re-seeds its
    own boundary between levels. *)
val check :
  ?tel:Telemetry.Hub.t ->
  ?rounds:int -> ?max_states:int -> ?max_depth:int ->
  ?expected_states:int -> ?report_visited:(Mc.Visited.stats -> unit) ->
  ?engine:Mc.engine -> ?por:bool ->
  ?symmetry:bool -> ?reorder_bound:bound_mode ->
  ?checkpoint:int * (Mc.checkpoint -> unit) -> ?resume:Mc.checkpoint ->
  model:Memory_model.t ->
  Locks.Lock.factory -> nprocs:int -> verdict

(** Replay a counterexample schedule into a step trace (pending labels
    flushed). *)
val replay :
  model:Memory_model.t -> Locks.Lock.factory -> nprocs:int -> rounds:int ->
  Exec.elt list -> Trace.t * Config.t
