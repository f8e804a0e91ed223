(** Litmus-test harness: exhaustive outcome enumeration per memory
    model — the operational content of "separating memory models". *)

open Memsim

type t = {
  name : string;
  description : string;
  nregs : int;  (** shared registers [x0..], all initially 0 *)
  programs : Reg.t array -> Program.t array;
  observed : Reg.t array -> Reg.t list;  (** registers in the outcome *)
}

type outcome = { returns : int list; finals : int list }

val pp_outcome : outcome Fmt.t

type run = {
  test : t;
  model : Memory_model.t;
  outcomes : outcome list;  (** sorted *)
  stats : Explore.stats;
  reorder_bound : int option;
      (** the (final) reorder bound enumerated under; [None] =
          unbounded *)
  bound_exact : bool;
      (** with a bound: the run certified saturation, so the outcome
          set is complete. A bounded, non-exact run is a subset and
          {!pp_run} flags it as ["reorder-bound K subset"]. *)
}

(** The test's registers and its initial configuration
    ({!Memsim.Config.make}). *)
val configure : t -> model:Memory_model.t -> Reg.t array * Config.t

(** The outcome of a final configuration: per-process return values
    ([-1] for a process that has not returned), then the committed
    values of the observed registers. The register array is
    {!configure}'s. *)
val outcome : t -> Reg.t array -> Config.t -> outcome

(** Enumerate all reachable outcomes under the model. [engine] sets
    the domain count of the [Mc] engine ([`Parallel 1] by default);
    [por] preserves the outcome set while visiting fewer
    states. [tel] plugs a {!Telemetry.Hub.t} into the exploration for
    live progress and stats (see {!Mc.run}). [reorder_bound] restricts
    the enumeration to executions within a reorder budget ([`K k]) or
    iteratively deepens until the set saturates ([`Deepen]). *)
val run :
  ?tel:Telemetry.Hub.t ->
  ?max_states:int -> ?engine:Mc.engine -> ?por:bool ->
  ?reorder_bound:[ `K of int | `Deepen ] ->
  t -> model:Memory_model.t -> run

val admits : run -> outcome -> bool
val pp_run : run Fmt.t

(** Why an all-model sweep must skip this cell, if it must:
    [Some "reorder bound undefined on view models"] when a reorder
    bound is set and the model is view-based (no write buffer to
    meter), [None] otherwise. Sweeps mark the cell explicitly instead
    of dropping the row. *)
val skip_reason :
  ?reorder_bound:[ `K of int | `Deepen ] -> Memory_model.t -> string option

(** Outcomes of [weaker] not reachable under [stronger]. *)
val separation : stronger:run -> weaker:run -> outcome list

(** Per-process fence-site counts (one sequential SC execution; valid
    for tests whose fences execute in fixed program-text order). *)
val fence_sites : t -> int array

(** Re-instantiate with a subset of fences under a global site
    numbering (process [p]'s sites start at the prefix sum of earlier
    processes' counts); site [i] survives iff [keep i], and [marker i]
    tags every site with a zero-cost label. Full mask, no marker ⇒
    extensionally the same test. *)
val with_fence_mask :
  ?marker:(int -> string) -> keep:(int -> bool) -> t -> t
