(** The vocabulary of state-space exploration: run statistics, the
    result record, and successor enumeration.

    Exploration itself lives in [Mc.run] (one to [j] domains, optional
    reductions); [Fuzz.Reference] is the lane-free reference explorer
    the parity suites check it against. Both explore {e every}
    interleaving of op steps and commit steps from a configuration,
    deduplicating states, to (a) verify mutual exclusion and
    deadlock-freedom of locks for small process counts, (b) find
    counterexample schedules for fence-stripped algorithms under weak
    models, and (c) enumerate the reachable outcomes of litmus tests per
    memory model — the operational "separation" of SC ⊊ TSO ⊊ PSO.

    Soundness of deduplication: programs are deterministic, so a
    process's local state is a function of its observation log; the
    state key therefore consists of committed memory (and, under the
    view models, the modification-log store), and per process its
    observation log, op count, write-buffer contents, last-read pair
    (which gates spin blocking), final value and views. Metrics and the
    last-committer table affect only accounting, not future behaviour,
    and are excluded. Spins are primitive (see {!Program.Spin}), so spin
    loops contribute no unbounded obs growth and the reachable space of
    terminating algorithms is finite.

    A caller may thread a {e monitor} over the steps of each explored
    edge (e.g. tracking critical-section occupancy from [Note] steps).
    The monitor state must be a function of the state key — true for
    anything derived from program positions — otherwise deduplication
    could skip monitor transitions. *)

type stats = {
  states : int;  (** distinct states visited *)
  transitions : int;
  truncated : bool;  (** a bound was hit; absence of violations is then
                         only valid up to the bound *)
  bound_hits : int;
      (** edges pruned by [reorder_bound] — their successor would carry
          more reorderings in flight than the budget. 0 on a completed
          bounded run {e certifies saturation}: the bounded transition
          system coincided with the unbounded one, so the verdict is
          exact, not an under-approximation. Always 0 when no bound was
          set. *)
}

type 'm violation = {
  message : string;
  path : Exec.elt list;  (** schedule from the root reproducing it *)
  monitor : 'm;
}

type 'm result = {
  stats : stats;
  violations : 'm violation list;  (** in discovery order, capped *)
  deadlocks : Exec.elt list list;  (** paths to stuck non-final states *)
}

(* Schedule elements that can produce a model step right now.
   ([ops @ commits @ acc] is bounded appending: at most one op element
   and |buffered registers| commit elements per process, rebuilt fresh
   per state — nothing accumulates across states.) *)
let successor_elts cfg : Exec.elt list =
  let n = Config.nprocs cfg in
  if Memory_model.view_based cfg.Config.model then
    (* view backend: one element per alternative of each process's
       current op (read message / insertion position choices), already
       empty for final or blocked processes *)
    let rec go p acc =
      if p < 0 then acc else go (p - 1) (Exec.enabled_elts cfg p @ acc)
    in
    go (n - 1) []
  else
  let rec go p acc =
    if p < 0 then acc
    else
      (* one pstate fetch per process serves the buffer, final and
         blocked probes *)
      let st = Config.pstate cfg p in
      let wb = st.Config.wb in
      let acc =
        if Wbuf.is_empty wb then acc
        else
          let elts = cfg.Config.commit_elts.(p) in
          List.map
            (fun r -> elts.(r))
            (Memory_model.commit_candidates cfg.Config.model wb)
          @ acc
      in
      let acc =
        if Program.is_done st.Config.skipped || Exec.blocked cfg st then acc
        else cfg.Config.op_elts.(p) :: acc
      in
      go (p - 1) acc
  in
  go (n - 1) []
