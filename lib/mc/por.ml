(** Partial-order reduction: the independence relation and the safe-step
    (persistent-singleton) selection built on it.

    Two schedule elements are {e independent} at a configuration when
    they are steps of distinct processes whose register footprints do
    not conflict — then executing them in either order reaches the same
    state. The write-buffer model makes many steps {e fully local}:
    a buffered write (touches only the writer's buffer), a fence over an
    empty buffer, a return, a read served by store forwarding. A fully
    local step of [p] is independent of {e every} step any other process
    can ever take, because no other process reads [p]'s buffer, program
    counter or last-read pair.

    Reduction rule: if some process [p] has exactly one enabled element
    — its op element, with an empty buffer — and that op is fully local
    and {e invisible} (emits no [Note], and its successor leaves [p]
    with no pending label, checked after execution), the checker expands
    only that element. This is a persistent (ample) set of size one:

    - C1 (persistence): the singleton is all of [p]'s enabled elements,
      and every element of every other process is independent of it;
    - C2 (invisibility): the step emits no note, so note-driven
      monitors (the mutual-exclusion monitor) see the same note traces;
    - C3 (no ignoring): the state graph is acyclic — every model step
      strictly increases the measure (Σ ops, −Σ |wb|) lexicographically
      — so a deferred element cannot be postponed forever.

    The classical sleep-set refinement (pruning sibling orders using
    this same independence relation) additionally requires sleep sets
    to be stored and merged on state revisits once a visited set is in
    play; DESIGN.md discusses why we stop at persistent singletons.

    Preserved under the reduction: all deadlocks, all quiescent states
    (hence litmus outcome sets), and violations of note-driven
    monitors. Not preserved: per-state [check] predicates over
    intermediate states, and exact state/transition counts. *)

open Memsim

type footprint = {
  reads : Reg.Set.t;
  writes : Reg.Set.t;
  local : bool;  (** touches no shared register at all *)
}

let local_fp = { reads = Reg.Set.empty; writes = Reg.Set.empty; local = true }
let read_fp r = { local_fp with reads = Reg.Set.singleton r; local = false }
let write_fp r = { local_fp with writes = Reg.Set.singleton r; local = false }

let rw_fp r =
  {
    reads = Reg.Set.singleton r;
    writes = Reg.Set.singleton r;
    local = false;
  }

(* Sentinel footprint that conflicts with itself and with every other
   global footprint: view-backend elements are never treated as
   independent. The reasoning above is write-buffer reasoning — under
   RA/SRA a "local-looking" step isn't: reads acquire message bases,
   writes are globally visible the moment they land in the log, and a
   fence touches the global SC view. The pseudo-register [-1] can
   never collide with a real register id. *)
let global_fp =
  {
    reads = Reg.Set.singleton (-1);
    writes = Reg.Set.singleton (-1);
    local = false;
  }

(** Footprint of the step element [(p, reg)] would produce at [cfg].
    Conservative for ops: a spin round reads its first register; a
    fence or cas over a non-empty buffer is the forced commit. Under a
    view-based model every element gets the conflicting {!global_fp}
    (POR degrades to a sound no-op; see the module header reasoning,
    which is buffer-specific). *)
let footprint cfg ((p, reg) : Exec.elt) : footprint =
  if Memory_model.view_based cfg.Config.model then global_fp
  else
  let wb = Config.wbuf cfg p in
  let buffered = Memory_model.buffered cfg.Config.model in
  match reg with
  | Some r when Memory_model.may_commit cfg.Config.model wb r -> write_fp r
  | Some _ | None -> (
      let forwarded r = buffered && Wbuf.find wb r <> None in
      let forced () =
        match Memory_model.forced_commit_reg cfg.Config.model wb with
        | Some r -> write_fp r
        | None -> local_fp
      in
      match (Config.skipped cfg p : Program.t) with
      | Program.Done _ | Ret _ -> local_fp
      | Read (r, _) | Spin (r, _, _) -> if forwarded r then local_fp else read_fp r
      | Spinv (r :: _, _, _, _) -> if forwarded r then local_fp else read_fp r
      | Spinv ([], _, _, _) -> local_fp
      | Write (r, _, _) -> if buffered then local_fp else write_fp r
      | Fence _ -> if Wbuf.is_empty wb then local_fp else forced ()
      | Cas (r, _, _, _) | Swap (r, _, _) | Faa (r, _, _) ->
          if Wbuf.is_empty wb then rw_fp r else forced ()
      | Label _ -> assert false)

let conflict a b =
  (not (Reg.Set.disjoint a.writes b.writes))
  || (not (Reg.Set.disjoint a.writes b.reads))
  || not (Reg.Set.disjoint a.reads b.writes)

(** State-commutation independence of two elements at [cfg]: distinct
    processes, non-conflicting footprints. (Visibility — note emission —
    is a separate concern, handled by {!invisible_after}.) *)
let independent cfg (e1 : Exec.elt) (e2 : Exec.elt) =
  (not (Pid.equal (fst e1) (fst e2)))
  && not (conflict (footprint cfg e1) (footprint cfg e2))

(** Budget charge of [p]'s op element over buffer [wb]: executing an
    op while pending writes sit in the buffer marks every still-unflagged
    entry overtaken ({!Wbuf.overtake_all} in the executor), so the
    charge is the unflagged count. Candidates poised at a fence are
    only considered over an empty buffer (a fence over a non-empty
    buffer is a forced — visible — commit), so the forced-commit case
    never reaches this accounting. *)
let op_charge wb = if Wbuf.is_empty wb then 0 else Wbuf.size wb - Wbuf.overtaken wb

(** Budget charge of committing register [r] from [wb]: the unflagged
    entries strictly older than the oldest pending [r] entry — exactly
    what {!Wbuf.commit} would newly mark. Zero for the buffer's oldest
    entry (equivalently the TSO head): draining oldest-first is always
    budget-free. *)
let commit_charge wb r =
  let rec older n = function
    | [] -> n
    | (e : Wbuf.entry) :: rest ->
        if Reg.equal e.reg r then n
        else older (n + if e.overtaken then 0 else 1) rest
  in
  older 0 (Wbuf.entries wb)

(** Processes whose only enabled element is a fully local op step —
    candidates for a persistent singleton, pending the post-execution
    {!invisible_after} check. In increasing pid order, for determinism
    of the 1-domain engine.

    Unbounded ([bound = None]): empty buffer (so no commit elements,
    no forced commit) and poised at a buffered write, a fence, or a
    return.

    Bounded ([bound = Some k]): candidacy is judged against the
    {e bounded} transition system, whose enabled set at a state is the
    admissible-edge set — [p] qualifies when its op is fully local and
    admissible and {e every} commit element of [p] is over-budget. On
    the current charging rules this is provably extensionally equal to
    the unbounded filter: an empty-buffer local op never charges (its
    step cannot flip any overtaken flag), and a non-empty buffer always
    retains an admissible commit, because committing the globally
    oldest entry (TSO's head; one of PSO/RMO's per-register fronts)
    marks nothing and can only {e retire} flags. The filter computes
    admissibility anyway rather than assuming that theorem, so the
    reduction stays correct — and automatically strengthens — if a
    model's charging rules ever make oldest-first draining non-free. *)
let ample_candidates ?bound cfg : Pid.t list =
  if Memory_model.view_based cfg.Config.model then []
    (* no view-backend step is fully local (see {!global_fp}): POR is a
       sound no-op under RA/SRA *)
  else
  let buffered = Memory_model.buffered cfg.Config.model in
  let n = Config.nprocs cfg in
  let in_flight =
    match bound with Some _ -> Config.reorders_in_flight cfg | None -> 0
  in
  let rec go p acc =
    if p < 0 then acc
    else
      let wb = Config.wbuf cfg p in
      let ok_kind =
        match Config.next_kind cfg p with
        | Program.Op_write -> buffered
        | Op_fence -> Wbuf.is_empty wb (* non-empty: forced commit, visible *)
        | Op_return _ -> true
        | Op_read | Op_cas | Op_spin | Op_done -> false
      in
      let ok =
        ok_kind
        &&
        match bound with
        | None -> Wbuf.is_empty wb
        | Some k ->
            in_flight + op_charge wb <= k
            && List.for_all
                 (fun r -> in_flight + commit_charge wb r > k)
                 (Memory_model.commit_candidates cfg.Config.model wb)
      in
      go (p - 1) (if ok then p :: acc else acc)
  in
  go (n - 1) []

(** After executing a candidate's step: is [p] left with no pending
    label? A pending label would surface as a [Note] at the successor's
    normalization — reordering it past other processes' steps could
    mask a monitor violation, so such steps are treated as visible and
    the reduction falls back to full expansion. *)
let invisible_after cfg p =
  not (Program.at_label (Config.pstate cfg p).Config.prog)
